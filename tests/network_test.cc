#include "sim/network.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace mcc::sim {
namespace {

using mcc::testing::capture_agent;
using mcc::testing::line_topology;
using mcc::testing::make_packet;

TEST(network, unicast_routes_through_line) {
  scheduler s;
  line_topology t(s);
  capture_agent sink(t.net, t.h2);
  t.net.get(t.h1)->send(make_packet(100, t.h2));
  s.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets.front().src, t.h1);
}

TEST(network, rejects_a_link_from_a_node_to_itself) {
  scheduler s;
  network net(s);
  const node_id r = net.add_router("r");
  EXPECT_THROW(net.connect(r, r, link_config{}), util::invariant_error);
}

TEST(network, unicast_reverse_direction) {
  scheduler s;
  line_topology t(s);
  capture_agent sink(t.net, t.h1);
  t.net.get(t.h2)->send(make_packet(100, t.h1));
  s.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(network, next_hop_tables_are_consistent) {
  scheduler s;
  line_topology t(s);
  link* first = t.net.next_hop(t.h1, t.h2);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->to()->id(), t.r1);
  link* second = t.net.next_hop(t.r1, t.h2);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->to()->id(), t.r2);
  EXPECT_EQ(t.net.next_hop(t.h1, t.h1), nullptr);
}

TEST(network, host_ignores_packets_for_others) {
  scheduler s;
  line_topology t(s);
  capture_agent sink1(t.net, t.h1);
  capture_agent sink2(t.net, t.h2);
  t.net.get(t.h1)->send(make_packet(100, t.h2));
  s.run();
  EXPECT_TRUE(sink1.packets.empty());
  EXPECT_EQ(sink2.packets.size(), 1u);
}

TEST(network, multicast_not_forwarded_without_graft) {
  scheduler s;
  line_topology t(s);
  capture_agent sink(t.net, t.h2);
  t.net.register_group_source(group_addr{500}, t.h1);
  t.net.get(t.h2)->host_join(group_addr{500});

  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(group_addr{500});
  t.net.get(t.h1)->send(std::move(p));
  s.run();
  EXPECT_TRUE(sink.packets.empty());
}

TEST(network, multicast_flows_after_join_upstream) {
  scheduler s;
  line_topology t(s);
  capture_agent sink(t.net, t.h2);
  const group_addr g{500};
  t.net.register_group_source(g, t.h1);
  t.net.get(t.h2)->host_join(g);
  // Graft the edge (r2 -> h2) and propagate toward the source.
  t.net.get(t.r2)->graft(g, t.net.next_hop(t.r2, t.h2));
  t.net.join_upstream(t.r2, g);
  s.run_until(milliseconds(100));  // let grafts install

  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(g);
  t.net.get(t.h1)->send(std::move(p));
  s.run_until(milliseconds(200));
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(network, join_upstream_takes_propagation_time) {
  scheduler s;
  line_topology t(s, 10e6, milliseconds(10));
  const group_addr g{501};
  t.net.register_group_source(g, t.h1);
  t.net.join_upstream(t.r2, g);
  // The graft at r1 (one hop up, 10 ms link) must not be installed earlier.
  s.run_until(milliseconds(5));
  link* down = t.middle;  // r1 -> r2
  EXPECT_FALSE(t.net.get(t.r1)->has_oif(g, down));
  s.run_until(milliseconds(15));
  EXPECT_TRUE(t.net.get(t.r1)->has_oif(g, down));
}

TEST(network, leave_upstream_prunes_interior) {
  scheduler s;
  line_topology t(s);
  const group_addr g{502};
  t.net.register_group_source(g, t.h1);
  link* edge_oif = t.net.next_hop(t.r2, t.h2);
  t.net.get(t.r2)->graft(g, edge_oif);
  t.net.join_upstream(t.r2, g);
  s.run_until(milliseconds(100));
  ASSERT_TRUE(t.net.get(t.r1)->has_oif(g, t.middle));

  t.net.get(t.r2)->prune(g, edge_oif);
  t.net.leave_upstream(t.r2, g);
  s.run_until(milliseconds(200));
  EXPECT_FALSE(t.net.get(t.r1)->has_oif(g, t.middle));
}

TEST(network, leave_upstream_keeps_branch_with_remaining_interest) {
  scheduler s;
  network net(s);
  const node_id h1 = net.add_host("src");
  const node_id r1 = net.add_router("r1");
  const node_id r2 = net.add_router("r2");
  const node_id ha = net.add_host("a");
  const node_id hb = net.add_host("b");
  link_config cfg;
  net.connect(h1, r1, cfg);
  net.connect(r1, r2, cfg);
  net.connect(r2, ha, cfg);
  net.connect(r2, hb, cfg);
  net.finalize_routing();

  const group_addr g{600};
  net.register_group_source(g, h1);
  link* oif_a = net.next_hop(r2, ha);
  link* oif_b = net.next_hop(r2, hb);
  net.get(r2)->graft(g, oif_a);
  net.get(r2)->graft(g, oif_b);
  net.join_upstream(r2, g);
  s.run_until(milliseconds(100));
  link* down = net.next_hop(r1, ha);  // r1 -> r2

  // One leaf leaves; the interior branch must survive because r2 still has
  // an interested interface.
  net.get(r2)->prune(g, oif_a);
  net.leave_upstream(r2, g);
  s.run_until(milliseconds(200));
  EXPECT_TRUE(net.get(r1)->has_oif(g, down));
}

TEST(network, multicast_fanout_to_two_hosts) {
  scheduler s;
  network net(s);
  const node_id src = net.add_host("src");
  const node_id r = net.add_router("r");
  const node_id ha = net.add_host("a");
  const node_id hb = net.add_host("b");
  link_config cfg;
  net.connect(src, r, cfg);
  net.connect(r, ha, cfg);
  net.connect(r, hb, cfg);
  net.finalize_routing();

  const group_addr g{700};
  net.register_group_source(g, src);
  net.get(ha)->host_join(g);
  net.get(hb)->host_join(g);
  net.get(r)->graft(g, net.next_hop(r, ha));
  net.get(r)->graft(g, net.next_hop(r, hb));

  capture_agent sa(net, ha);
  capture_agent sb(net, hb);
  packet p;
  p.size_bytes = 64;
  p.dst = dest::to_group(g);
  net.get(src)->send(std::move(p));
  s.run();
  EXPECT_EQ(sa.packets.size(), 1u);
  EXPECT_EQ(sb.packets.size(), 1u);
}

TEST(network, host_only_receives_subscribed_groups) {
  scheduler s;
  line_topology t(s);
  const group_addr g{800};
  t.net.register_group_source(g, t.h1);
  t.net.get(t.r2)->graft(g, t.net.next_hop(t.r2, t.h2));
  t.net.join_upstream(t.r2, g);
  s.run_until(milliseconds(100));
  capture_agent sink(t.net, t.h2);  // h2 has NOT host_join()ed

  packet p;
  p.size_bytes = 64;
  p.dst = dest::to_group(g);
  t.net.get(t.h1)->send(std::move(p));
  s.run_until(milliseconds(200));
  EXPECT_TRUE(sink.packets.empty());
}

TEST(network, router_alert_packets_never_reach_hosts) {
  scheduler s;
  line_topology t(s);
  const group_addr g{900};
  t.net.register_group_source(g, t.h1);
  t.net.get(t.h2)->host_join(g);
  t.net.get(t.r2)->graft(g, t.net.next_hop(t.r2, t.h2));
  t.net.join_upstream(t.r2, g);
  s.run_until(milliseconds(100));
  capture_agent sink(t.net, t.h2);

  packet p;
  p.size_bytes = 64;
  p.dst = dest::to_group(g);
  p.router_alert = true;
  t.net.get(t.h1)->send(std::move(p));
  s.run_until(milliseconds(200));
  EXPECT_TRUE(sink.packets.empty());
}

TEST(network, alert_interceptor_sees_special_packets) {
  scheduler s;
  line_topology t(s);
  const group_addr g{901};
  t.net.register_group_source(g, t.h1);
  t.net.get(t.r2)->graft(g, t.net.next_hop(t.r2, t.h2));
  t.net.join_upstream(t.r2, g);
  s.run_until(milliseconds(100));

  class interceptor : public agent {
   public:
    bool handle_packet(const packet&, link*) override {
      ++count;
      return true;
    }
    int count = 0;
  } icpt;
  t.net.get(t.r2)->set_alert_interceptor(&icpt);

  packet p;
  p.size_bytes = 64;
  p.dst = dest::to_group(g);
  p.router_alert = true;
  t.net.get(t.h1)->send(std::move(p));
  s.run_until(milliseconds(200));
  EXPECT_EQ(icpt.count, 1);
}

TEST(network, session_announcements_are_registered) {
  scheduler s;
  network net(s);
  session_announcement ann;
  ann.session_id = 9;
  ann.groups = {group_addr{10}, group_addr{11}};
  ann.slot_duration = milliseconds(250);
  ann.sigma_protected = true;
  net.announce_session(ann);
  const session_announcement* found = net.find_session(9);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->groups.size(), 2u);
  EXPECT_TRUE(net.is_sigma_protected(group_addr{10}));
  EXPECT_TRUE(net.is_sigma_protected(group_addr{11}));
  EXPECT_FALSE(net.is_sigma_protected(group_addr{12}));
  EXPECT_EQ(net.find_session(10), nullptr);
}

TEST(network, routing_queries_require_finalize) {
  scheduler s;
  network net(s);
  const node_id a = net.add_host("a");
  const node_id b = net.add_host("b");
  net.connect(a, b, link_config{});
  EXPECT_THROW((void)net.next_hop(a, b), util::invariant_error);
  net.finalize_routing();
  EXPECT_NE(net.next_hop(a, b), nullptr);
}

TEST(network, topology_frozen_after_finalize) {
  scheduler s;
  network net(s);
  net.add_host("a");
  net.finalize_routing();
  EXPECT_THROW((void)net.add_host("late"), util::invariant_error);
}

}  // namespace
}  // namespace mcc::sim
