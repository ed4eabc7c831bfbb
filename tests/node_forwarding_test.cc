// Router forwarding edge cases: reverse-path suppression, no-route
// accounting, policy deny semantics, multi-branch fanout, and the
// flat group tables behind oif lists, host subscriptions and SIGMA marks.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/group_table.h"
#include "test_util.h"

namespace mcc::sim {
namespace {

using mcc::testing::capture_agent;
using mcc::testing::make_packet;

TEST(node_forwarding, multicast_never_echoes_to_arrival_link) {
  // src -- r -- dst, with r grafted on BOTH its interfaces for the group.
  scheduler s;
  network net(s);
  const auto src = net.add_host("src");
  const auto r = net.add_router("r");
  const auto dst = net.add_host("dst");
  net.connect(src, r, link_config{});
  net.connect(r, dst, link_config{});
  net.finalize_routing();
  const group_addr g{100};
  net.register_group_source(g, src);
  // Graft even the interface pointing back at the source.
  net.get(r)->graft(g, net.next_hop(r, src));
  net.get(r)->graft(g, net.next_hop(r, dst));
  net.get(dst)->host_join(g);
  net.get(src)->host_join(g);
  capture_agent at_src(net, src);
  capture_agent at_dst(net, dst);

  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(g);
  net.get(src)->send(std::move(p));
  s.run();
  EXPECT_EQ(at_dst.packets.size(), 1u);
  EXPECT_TRUE(at_src.packets.empty());  // no echo back toward the source
}

TEST(node_forwarding, unicast_without_route_counts_no_route) {
  scheduler s;
  network net(s);
  const auto a = net.add_host("a");
  const auto r = net.add_router("r");
  const auto island = net.add_host("island");  // not connected to anything
  net.connect(a, r, link_config{});
  net.finalize_routing();
  // The host itself refuses to originate toward an unreachable node...
  EXPECT_THROW(net.get(a)->send(make_packet(50, island)),
               util::invariant_error);
  // ...and a router receiving such a packet drops it and counts no_route.
  net.get(r)->receive(make_packet(50, island), nullptr);
  EXPECT_EQ(net.get(r)->stats().no_route, 1u);
}

TEST(node_forwarding, policy_denial_is_counted_and_scoped) {
  scheduler s;
  network net(s);
  const auto src = net.add_host("src");
  const auto r = net.add_router("r");
  const auto ha = net.add_host("a");
  const auto hb = net.add_host("b");
  net.connect(src, r, link_config{});
  net.connect(r, ha, link_config{});
  net.connect(r, hb, link_config{});
  net.finalize_routing();
  const group_addr g{300};
  net.register_group_source(g, src);
  link* oif_a = net.next_hop(r, ha);
  net.get(r)->graft(g, oif_a);
  net.get(r)->graft(g, net.next_hop(r, hb));
  net.get(ha)->host_join(g);
  net.get(hb)->host_join(g);

  struct deny_a : access_policy {
    explicit deny_a(link* a) : a_(a) {}
    bool allow(const packet&, link* oif) override { return oif != a_; }
    link* a_;
  } policy(oif_a);
  net.get(r)->set_access_policy(&policy);

  capture_agent at_a(net, ha);
  capture_agent at_b(net, hb);
  for (int i = 0; i < 5; ++i) {
    packet p;
    p.size_bytes = 100;
    p.dst = dest::to_group(g);
    net.get(src)->send(std::move(p));
  }
  s.run();
  EXPECT_TRUE(at_a.packets.empty());
  EXPECT_EQ(at_b.packets.size(), 5u);
  EXPECT_EQ(net.get(r)->stats().policy_denied, 5u);
}

TEST(node_forwarding, policy_not_consulted_for_router_facing_branches) {
  // src -- r1 -- r2 -- dst: a deny-everything policy on r1 must not block
  // the r1 -> r2 branch (policies guard host-facing interfaces only).
  scheduler s;
  network net(s);
  const auto src = net.add_host("src");
  const auto r1 = net.add_router("r1");
  const auto r2 = net.add_router("r2");
  const auto dst = net.add_host("dst");
  net.connect(src, r1, link_config{});
  net.connect(r1, r2, link_config{});
  net.connect(r2, dst, link_config{});
  net.finalize_routing();
  const group_addr g{400};
  net.register_group_source(g, src);
  net.get(r1)->graft(g, net.next_hop(r1, dst));
  net.get(r2)->graft(g, net.next_hop(r2, dst));
  net.get(dst)->host_join(g);

  struct deny_all : access_policy {
    bool allow(const packet&, link*) override { return false; }
  } policy;
  net.get(r1)->set_access_policy(&policy);

  capture_agent sink(net, dst);
  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(g);
  net.get(src)->send(std::move(p));
  s.run();
  // r1 forwarded to r2 despite its policy; r2 (no policy) delivered.
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(node_forwarding, self_addressed_unicast_delivers_to_router_agents) {
  scheduler s;
  network net(s);
  const auto h = net.add_host("h");
  const auto r = net.add_router("r");
  net.connect(h, r, link_config{});
  net.finalize_routing();
  capture_agent mgmt(net, r);
  net.get(h)->send(make_packet(40, r));
  s.run();
  EXPECT_EQ(mgmt.packets.size(), 1u);
  EXPECT_EQ(net.get(r)->stats().delivered_local, 1u);
}

TEST(node_forwarding, fanout_order_follows_downstream_node_ids) {
  // Links are created (and so allocated) in the reverse of their downstream
  // ids and grafted in a scrambled order; fan-out must still visit them by
  // ascending node id. Same-instant events fire in fan-out order, so an
  // address-dependent order would make threaded sweeps nondeterministic.
  scheduler s;
  network net(s);
  const auto r = net.add_router("r");
  std::vector<node_id> hosts;
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(net.add_host("h" + std::to_string(i)));
  }
  for (auto it = hosts.rbegin(); it != hosts.rend(); ++it) {
    net.connect(r, *it, link_config{});
  }
  net.finalize_routing();
  const group_addr g{300};
  for (const std::size_t i : {3u, 0u, 5u, 1u, 4u, 2u}) {
    net.get(r)->graft(g, net.next_hop(r, hosts[i]));
  }
  std::vector<node_id> order;
  for (const link* oif : *net.get(r)->oifs(g)) order.push_back(oif->to()->id());
  EXPECT_EQ(order, hosts);
}

TEST(node_forwarding, grafting_an_oif_twice_makes_one_branch) {
  scheduler s;
  network net(s);
  const auto src = net.add_host("src");
  const auto r = net.add_router("r");
  const auto dst = net.add_host("dst");
  net.connect(src, r, link_config{});
  net.connect(r, dst, link_config{});
  net.finalize_routing();
  const group_addr g{500};
  link* oif = net.next_hop(r, dst);
  net.get(r)->graft(g, oif);
  net.get(r)->graft(g, oif);
  EXPECT_EQ(net.get(r)->oif_count(g), 1);
  net.get(dst)->host_join(g);
  capture_agent sink(net, dst);
  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(g);
  net.get(src)->send(std::move(p));
  s.run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(net.get(r)->stats().forwarded_multicast, 1u);
}

TEST(node_forwarding, pruning_a_non_member_is_a_no_op) {
  scheduler s;
  network net(s);
  const auto r = net.add_router("r");
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(r, a, link_config{});
  net.connect(r, b, link_config{});
  net.finalize_routing();
  node* rn = net.get(r);
  link* to_a = net.next_hop(r, a);
  link* to_b = net.next_hop(r, b);
  const group_addr g{600};
  rn->prune(g, to_a);  // no table entry for the group at all
  EXPECT_EQ(rn->oifs(g), nullptr);
  rn->graft(g, to_a);
  rn->prune(g, to_b);  // the group exists, the oif is not in it
  rn->prune(group_addr{601}, to_a);  // another group
  EXPECT_EQ(rn->oif_count(g), 1);
  EXPECT_TRUE(rn->has_oif(g, to_a));
  EXPECT_FALSE(rn->has_oif(g, to_b));
}

TEST(node_forwarding, pruning_the_last_oif_removes_the_group) {
  scheduler s;
  network net(s);
  const auto r = net.add_router("r");
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(r, a, link_config{});
  net.connect(r, b, link_config{});
  net.finalize_routing();
  node* rn = net.get(r);
  link* to_a = net.next_hop(r, a);
  link* to_b = net.next_hop(r, b);
  const group_addr g{700};
  rn->graft(g, to_b);
  rn->graft(g, to_a);
  rn->prune(g, to_a);
  EXPECT_EQ(rn->oif_count(g), 1);
  rn->prune(g, to_b);
  EXPECT_EQ(rn->oifs(g), nullptr);
  EXPECT_EQ(rn->oif_count(g), 0);
  EXPECT_FALSE(rn->has_oif(g, to_b));
  rn->graft(g, to_a);  // and the group can come back
  EXPECT_EQ(rn->oif_count(g), 1);
}

TEST(node_forwarding, group_tables_survive_many_groups_and_churn) {
  // Enough groups to grow the tables several times, laid out the way
  // sessions number theirs (runs of consecutive values per session), then
  // half of them removed again: every lookup must still find exactly the
  // groups that remain.
  scheduler s;
  network net(s);
  const auto r = net.add_router("r");
  const auto h = net.add_host("h");
  net.connect(r, h, link_config{});
  net.finalize_routing();
  node* rn = net.get(r);
  node* hn = net.get(h);
  link* oif = net.next_hop(r, h);
  std::vector<group_addr> groups;
  for (int session = 0; session < 40; ++session) {
    for (int layer = 0; layer < 12; ++layer) {
      groups.push_back(group_addr{10'000 + session * 100 + layer});
    }
  }
  for (const group_addr g : groups) {
    rn->graft(g, oif);
    hn->host_join(g);
    net.mark_sigma_protected(g);
  }
  for (std::size_t i = 0; i < groups.size(); i += 2) {
    rn->prune(groups[i], oif);
    hn->host_leave(groups[i]);
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const bool kept = i % 2 == 1;
    EXPECT_EQ(rn->oif_count(groups[i]), kept ? 1 : 0) << groups[i].value;
    EXPECT_EQ(hn->host_subscribed(groups[i]), kept) << groups[i].value;
    EXPECT_TRUE(net.is_sigma_protected(groups[i])) << groups[i].value;
  }
  EXPECT_FALSE(hn->host_subscribed(group_addr{9'999}));
  EXPECT_FALSE(net.is_sigma_protected(group_addr{9'999}));
}

TEST(node_forwarding, host_join_and_leave_round_trip) {
  scheduler s;
  network net(s);
  const auto r = net.add_router("r");
  const auto h = net.add_host("h");
  net.connect(r, h, link_config{});
  net.finalize_routing();
  const group_addr g{800};
  const group_addr other{801};
  node* hn = net.get(h);
  EXPECT_FALSE(hn->host_subscribed(g));
  hn->host_join(g);
  hn->host_join(g);
  hn->host_join(other);
  EXPECT_TRUE(hn->host_subscribed(g));
  hn->host_leave(g);
  EXPECT_FALSE(hn->host_subscribed(g));
  EXPECT_TRUE(hn->host_subscribed(other));
  hn->host_leave(g);  // leaving twice is harmless
  hn->host_join(g);
  EXPECT_TRUE(hn->host_subscribed(g));

  // Delivery follows the subscription.
  net.get(r)->graft(g, net.next_hop(r, h));
  capture_agent sink(net, h);
  const auto send = [&] {
    packet p;
    p.size_bytes = 100;
    p.dst = dest::to_group(g);
    net.get(r)->receive(std::move(p), nullptr);
    s.run();
  };
  send();
  hn->host_leave(g);
  send();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(group_map, matches_std_map_under_random_churn) {
  // Random inserts and erases over a key range small enough to collide
  // constantly, checked against std::map after every operation.
  group_map<int> table;
  std::map<int, int> oracle;
  std::uint64_t x = 12345;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>(x >> 33);
  };
  for (int op = 0; op < 20'000; ++op) {
    const group_addr g{10'000 + next() % 300};
    if (next() % 3 == 0) {
      table.erase(g);
      oracle.erase(g.value);
    } else {
      table[g] = op;
      oracle[g.value] = op;
    }
    const group_addr probe{10'000 + next() % 300};
    const int* found = table.find(probe);
    const auto it = oracle.find(probe.value);
    ASSERT_EQ(found != nullptr, it != oracle.end()) << "op " << op;
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second) << "op " << op;
    }
  }
  for (int v = 10'000; v < 10'300; ++v) {
    EXPECT_EQ(table.find(group_addr{v}) != nullptr, oracle.contains(v)) << v;
  }
}

}  // namespace
}  // namespace mcc::sim
