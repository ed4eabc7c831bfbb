// In-simulator tests for the replicated multicast protocol (one group at a
// time, switch down on loss, switch up on authorization): flid_receiver with
// the honest plain strategy on a replicated session.
#include <gtest/gtest.h>

#include <memory>

#include "core/flid_ds.h"
#include "flid/flid_receiver.h"
#include "flid/flid_sender.h"
#include "mcast/igmp.h"
#include "test_util.h"

namespace mcc::flid {
namespace {

struct replicated_fixture : ::testing::Test {
  replicated_fixture() {
    src = net_.add_host("src");
    r1 = net_.add_router("r1");
    r2 = net_.add_router("r2");
    dst = net_.add_host("dst");
  }

  void wire(double bottleneck_bps) {
    sim::link_config fat;
    fat.bps = 10e6;
    fat.delay = sim::milliseconds(10);
    sim::link_config thin;
    thin.bps = bottleneck_bps;
    thin.delay = sim::milliseconds(20);
    net_.connect(src, r1, fat);
    net_.connect(r1, r2, thin);
    net_.connect(r2, dst, fat);
    net_.finalize_routing();
    igmp_ = std::make_unique<mcast::igmp_agent>(net_, r2);
  }

  /// A receiver at `dst` (honest plain by default), started at time 0.
  std::unique_ptr<flid_receiver> start_receiver(
      const flid_config& fc,
      std::unique_ptr<subscription_strategy> strategy =
          std::make_unique<honest_plain_strategy>()) {
    auto r = std::make_unique<flid_receiver>(net_, dst, r2, fc,
                                             std::move(strategy));
    r->start(0);
    return r;
  }

  sim::scheduler sched_;
  sim::network net_{sched_};
  sim::node_id src, r1, r2, dst;
  std::unique_ptr<mcast::igmp_agent> igmp_;
};

flid_config replicated_config() {
  flid_config fc;
  fc.session_id = 8;
  fc.structure = session_structure::replicated;
  fc.group_addr_base = 8000;
  fc.num_groups = 5;
  fc.base_rate_bps = 100e3;
  fc.rate_multiplier = 1.4;
  fc.slot_duration = sim::milliseconds(500);
  return fc;
}

TEST_F(replicated_fixture, climbs_to_top_group_with_ample_capacity) {
  wire(10e6);
  const auto fc = replicated_config();
  flid_sender sender(net_, src, fc, 1);
  sender.start(0);
  const auto receiver = start_receiver(fc);
  sched_.run_until(sim::seconds(90.0));
  EXPECT_EQ(receiver->level(), fc.num_groups);
}

TEST_F(replicated_fixture, settles_at_sustainable_group_under_bottleneck) {
  wire(300e3);
  const auto fc = replicated_config();  // rates 100,140,196,274,384 Kbps
  flid_sender sender(net_, src, fc, 1);
  sender.start(0);
  const auto receiver = start_receiver(fc);
  sched_.run_until(sim::seconds(120.0));
  // Groups 1-3 fit in 300 Kbps; group 5 (384K) does not. Group 4 (274K)
  // mostly fits; the receiver should hover at 3-4 and never hold 5.
  EXPECT_GE(receiver->level(), 2);
  EXPECT_LE(receiver->level(), 4);
  const double kbps = receiver->monitor().average_kbps(sim::seconds(60.0),
                                                       sim::seconds(120.0));
  EXPECT_GT(kbps, 130.0);
  EXPECT_LT(kbps, 310.0);
}

TEST_F(replicated_fixture, switches_exactly_one_group_at_a_time) {
  wire(10e6);
  const auto fc = replicated_config();
  flid_sender sender(net_, src, fc, 1);
  sender.start(0);
  const auto receiver = start_receiver(fc);
  int last = 1;
  // Sample the group periodically; it must move in unit steps.
  for (int s = 1; s <= 60; ++s) {
    sched_.run_until(sim::seconds(static_cast<double>(s)));
    const int g = receiver->level();
    EXPECT_LE(std::abs(g - last), 1) << "at t=" << s;
    last = g;
  }
}

TEST_F(replicated_fixture, only_one_group_subscribed_at_any_time) {
  wire(10e6);
  const auto fc = replicated_config();
  flid_sender sender(net_, src, fc, 1);
  sender.start(0);
  const auto receiver = start_receiver(fc);
  for (int s = 1; s <= 30; ++s) {
    sched_.run_until(sim::seconds(static_cast<double>(s)));
    int subscribed = 0;
    for (int g = 1; g <= fc.num_groups; ++g) {
      if (net_.get(dst)->host_subscribed(fc.group(g))) ++subscribed;
    }
    EXPECT_EQ(subscribed, 1) << "at t=" << s;
  }
}

TEST_F(replicated_fixture, sender_rates_are_full_content_rates) {
  wire(10e6);
  const auto fc = replicated_config();
  flid_sender sender(net_, src, fc, 1);
  // Group g of a replicated session carries the whole content at the
  // level-g rate (not a differential layer).
  const double t = sim::to_seconds(fc.slot_duration);
  for (int g = 1; g <= fc.num_groups; ++g) {
    double packets = 0;
    for (std::int64_t s = 0; s < 40; ++s) packets += sender.packets_in_slot(g, s);
    const double bps = packets * 8 * fc.packet_bytes / (40 * t);
    EXPECT_NEAR(bps, fc.cumulative_rate_bps(g), 0.05 * fc.cumulative_rate_bps(g))
        << "group " << g;
  }
}

TEST_F(replicated_fixture, sigma_strategies_refuse_a_replicated_session) {
  // SIGMA proves cumulative levels only: a SIGMA strategy refuses a
  // replicated session when it attaches, at session start.
  wire(10e6);
  const auto fc = replicated_config();
  const auto r =
      start_receiver(fc, std::make_unique<core::honest_sigma_strategy>());
  EXPECT_THROW(sched_.run_until(sim::seconds(1.0)), util::invariant_error);
}

}  // namespace
}  // namespace mcc::flid
