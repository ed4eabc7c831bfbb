// Nodes: hosts (protocol endpoints) and routers (forwarding + group tables).
//
// Routers forward unicast packets via the network's static next-hop tables
// and multicast packets via their per-group outgoing-interface lists. A
// pluggable access policy on host-facing interfaces is the hook SIGMA
// implements; plain IGMP corresponds to "no policy" (always allow).
#ifndef MCC_SIM_NODE_H
#define MCC_SIM_NODE_H

#include <string>
#include <vector>

#include "sim/group_table.h"
#include "sim/link.h"
#include "sim/wire.h"

namespace mcc::sim {

class network;

/// A protocol endpoint or router management component.
class agent {
 public:
  virtual ~agent() = default;
  /// Returns true if the packet was consumed by this agent.
  virtual bool handle_packet(const packet& p, link* arrival) = 0;
};

/// Decides whether a multicast data packet may be forwarded onto a
/// host-facing interface of an edge router (SIGMA implements this). The
/// policy only decides: every branch carries the packet as it arrived.
class access_policy {
 public:
  virtual ~access_policy() = default;
  virtual bool allow(const packet& p, link* oif) = 0;
};

class node {
 public:
  node(network& net, node_id id, std::string name, bool is_router);
  node(const node&) = delete;
  node& operator=(const node&) = delete;

  [[nodiscard]] node_id id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool is_router() const { return router_; }
  [[nodiscard]] bool is_host() const { return !router_; }

  /// Entry point for packets arriving from a link (nullptr = locally
  /// injected). The packet is taken by reference: a forwarded unicast packet
  /// is moved on from it, multicast branches are copied from it.
  void receive(packet&& p, link* from);

  /// Hosts: originates a packet (unicast routing or multicast via the access
  /// link). Hosts have exactly one outgoing link.
  void send(packet p);

  // --- agents ---------------------------------------------------------------
  void add_agent(agent* a) { agents_.push_back(a); }
  void remove_agent(agent* a);
  /// Router-alert packets are offered to this agent at routers (SIGMA control
  /// interception) before tree forwarding continues.
  void set_alert_interceptor(agent* a) { alert_interceptor_ = a; }
  void set_access_policy(access_policy* p) { policy_ = p; }

  // --- host multicast subscription -------------------------------------------
  void host_join(group_addr g) { local_groups_.insert(g); }
  void host_leave(group_addr g) { local_groups_.erase(g); }
  [[nodiscard]] bool host_subscribed(group_addr g) const {
    return local_groups_.contains(g);
  }

  // --- router multicast forwarding state -------------------------------------
  /// Orders out-interfaces by downstream node id, so multicast fan-out (and
  /// with it the order of same-instant events) is a function of the
  /// topology, never of where the allocator placed the links.
  struct oif_order {
    bool operator()(const link* a, const link* b) const;
  };
  /// A group's out-interfaces, sorted by oif_order, each at most once.
  using oif_list = std::vector<link*>;

  void graft(group_addr g, link* oif);
  void prune(group_addr g, link* oif);
  [[nodiscard]] bool has_oif(group_addr g, link* oif) const;
  /// The group's out-interfaces, or nullptr when none is grafted.
  [[nodiscard]] const oif_list* oifs(group_addr g) const;
  /// Number of outgoing interfaces currently grafted for the group.
  [[nodiscard]] int oif_count(group_addr g) const;

  // --- wiring (used by network) ----------------------------------------------
  void add_out_link(link* l) { out_links_.push_back(l); }
  [[nodiscard]] const std::vector<link*>& out_links() const { return out_links_; }

  struct counters {
    std::uint64_t forwarded_unicast = 0;
    std::uint64_t forwarded_multicast = 0;
    std::uint64_t policy_denied = 0;
    std::uint64_t delivered_local = 0;
    std::uint64_t no_route = 0;
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

 private:
  void deliver_local(const packet& p, link* from);
  void forward(const packet& p, link* from);

  network& net_;
  node_id id_;
  std::string name_;
  bool router_;
  std::vector<agent*> agents_;
  agent* alert_interceptor_ = nullptr;
  access_policy* policy_ = nullptr;
  group_set local_groups_;
  group_map<oif_list> mcast_oifs_;
  std::vector<link*> out_links_;
  /// Reused multicast fan-out snapshot (packet delivery is never synchronous,
  /// so forward() cannot re-enter while the loop runs).
  std::vector<link*> fanout_scratch_;
  counters stats_;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_NODE_H
