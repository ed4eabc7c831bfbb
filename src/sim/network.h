// The network: owns nodes and links, computes static shortest-path routing,
// and manages source-rooted multicast trees (graft/prune propagation with
// per-hop latency).
//
// Join/leave propagation mutates router group tables directly after the
// appropriate per-hop delays instead of simulating router-to-router IGMP
// packets; the paper assumes trusted, correctly-functioning routers, so only
// the latency of tree maintenance matters for the experiments.
#ifndef MCC_SIM_NETWORK_H
#define MCC_SIM_NETWORK_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/group_table.h"
#include "sim/node.h"
#include "sim/scheduler.h"

namespace mcc::sim {

class network {
 public:
  explicit network(scheduler& sched) : sched_(sched) {}
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  scheduler& sched() { return sched_; }

  // --- topology ---------------------------------------------------------------
  node_id add_host(const std::string& name);
  node_id add_router(const std::string& name);
  [[nodiscard]] node* get(node_id id);
  [[nodiscard]] const node* get(node_id id) const;
  [[nodiscard]] int node_count() const { return static_cast<int>(nodes_.size()); }

  /// Creates a duplex link (two unidirectional links with the same config).
  std::pair<link*, link*> connect(node_id a, node_id b, const link_config& cfg);
  /// Creates a duplex link with asymmetric configs (a->b uses `ab`).
  std::pair<link*, link*> connect(node_id a, node_id b, const link_config& ab,
                                  const link_config& ba);

  /// All unidirectional links in creation order (connect() appends two).
  /// Deterministic iteration order, so metric views registered per link
  /// snapshot in the same order on every run.
  [[nodiscard]] const std::vector<std::unique_ptr<link>>& links() const {
    return links_;
  }

  /// Computes all-pairs next-hop tables. Must be called after topology is
  /// final and before traffic starts.
  void finalize_routing();
  [[nodiscard]] link* next_hop(node_id from, node_id to) const;

  // --- multicast --------------------------------------------------------------
  /// Declares the (single) source host of a group (EXPRESS-style channels).
  void register_group_source(group_addr g, node_id source_host);
  [[nodiscard]] node_id group_source(group_addr g) const;

  /// Grafts the tree from the edge router toward the group's source, hop by
  /// hop, charging each hop's propagation delay (join message latency).
  void join_upstream(node_id edge_router, group_addr g);
  /// Prunes the edge router's branch; interior branches are removed as their
  /// oif sets drain.
  void leave_upstream(node_id edge_router, group_addr g);

  /// Marks a group as guarded by SIGMA: edge routers must refuse plain IGMP
  /// joins for it (paper section 3.2.3, incremental deployment).
  void mark_sigma_protected(group_addr g) { sigma_protected_.insert(g); }
  [[nodiscard]] bool is_sigma_protected(group_addr g) const {
    return sigma_protected_.contains(g);
  }

  /// Publishes a session announcement (out-of-band directory). Marks all the
  /// session's groups protected when the announcement says so.
  void announce_session(const session_announcement& ann);
  /// Returns the announcement or nullptr if the session is unknown.
  [[nodiscard]] const session_announcement* find_session(int session_id) const;

  std::uint64_t new_packet_uid() { return ++uid_counter_; }

 private:
  node_id add_node(const std::string& name, bool router);

  scheduler& sched_;
  std::vector<std::unique_ptr<node>> nodes_;
  std::vector<std::unique_ptr<link>> links_;
  // next_hop_[src * n + dst] = first link on the shortest path (hop count).
  std::vector<link*> next_hop_;
  bool routing_final_ = false;
  group_map<node_id> group_sources_;
  group_set sigma_protected_;
  std::map<int, session_announcement> announcements_;
  std::uint64_t uid_counter_ = 0;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_NETWORK_H
