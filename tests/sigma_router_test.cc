// SIGMA edge-router behaviour: control-packet decoding, key validation,
// grace windows, probation, stale pruning, and attack containment.
#include "core/sigma_router.h"

#include <gtest/gtest.h>

#include "adversary/adversary.h"
#include "core/flid_ds.h"
#include "exp/testbed.h"
#include "sigma_harness.h"

namespace mcc::core {
namespace {

using exp::dumbbell;
using exp::testbed;
using exp::dumbbell_config;
using exp::flid_mode;
using exp::receiver_options;

struct sigma_fixture : ::testing::Test {
  sigma_fixture() {
    dumbbell_config cfg;
    cfg.bottleneck_bps = 10e6;  // uncongested unless a test says otherwise
    d = std::make_unique<testbed>(dumbbell(cfg));
  }
  std::unique_ptr<testbed> d;
};

TEST_F(sigma_fixture, ctrl_blocks_decode_at_router) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  d->run_until(sim::seconds(5.0));
  EXPECT_GT(d->sigma().stats().ctrl_shards, 0u);
  EXPECT_GT(d->sigma().stats().blocks_decoded, 0u);
  (void)session;
}

TEST_F(sigma_fixture, honest_receiver_is_admitted_and_climbs) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  d->run_until(sim::seconds(60.0));
  EXPECT_EQ(session.receiver().level(), session.config.num_groups);
  EXPECT_GT(d->sigma().stats().valid_keys, 0u);
  EXPECT_EQ(d->sigma().stats().invalid_keys, 0u);
}

TEST_F(sigma_fixture, subscription_messages_flow_every_slot) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  d->run_until(sim::seconds(20.0));
  // One subscription per evaluated slot (~4 slots/s at 250 ms).
  EXPECT_GT(d->sigma().stats().subscribe_msgs, 10u);
  (void)session;
}

TEST_F(sigma_fixture, raw_igmp_join_to_protected_group_is_refused) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  // A fresh host tries to IGMP-join group 5 of the protected session.
  const auto intruder = d->attach_host("intruder", "r");
  mcast::membership_client client(d->net(), intruder, d->router("r"));
  d->sched().at(sim::seconds(1.0),
                [&] { client.join(session.config.group(5)); });
  d->run_until(sim::seconds(10.0));
  // The intruder host received nothing.
  EXPECT_EQ(d->net().get(intruder)->stats().delivered_local, 0u);
}

TEST_F(sigma_fixture, session_join_lying_about_minimal_group_is_refused) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto intruder = d->attach_host("liar", "r");
  d->net().get(intruder)->host_join(session.config.group(8));
  d->sched().at(sim::seconds(1.0), [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d->router("r"));
    // Claim the high-rate group 8 is "minimal".
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(8)};
    d->net().get(intruder)->send(std::move(p));
  });
  d->run_until(sim::seconds(10.0));
  EXPECT_GT(d->sigma().stats().session_joins_refused, 0u);
  EXPECT_EQ(d->net().get(intruder)->stats().delivered_local, 0u);
}

TEST_F(sigma_fixture, keyless_session_join_gets_grace_then_cutoff) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  // A receiver that session-joins but never submits keys: gets the minimal
  // group for the grace window, then is cut off (probation block).
  const auto freeloader = d->attach_host("freeloader", "r");
  d->net().get(freeloader)->host_join(session.config.group(1));
  d->sched().at(sim::seconds(2.0), [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d->router("r"));
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(1)};
    d->net().get(freeloader)->send(std::move(p));
  });
  d->run_until(sim::seconds(20.0));
  // It received the grace window's worth of packets...
  EXPECT_GT(d->net().get(freeloader)->stats().delivered_local, 0u);
  // ...but was then blocked.
  EXPECT_GT(d->sigma().stats().probation_blocks, 0u);
  // Grace is ~3 slots of the ~5.4 packet/slot minimal group: the freeloader
  // must not have kept receiving for the whole 18 s.
  EXPECT_LT(d->net().get(freeloader)->stats().delivered_local, 60u);
}

TEST_F(sigma_fixture, random_key_guessing_fails_and_is_tallied) {
  receiver_options attacker;
  attacker.attack =
      adversary::inflate_once(sim::seconds(5.0), adversary::key_mode::guess);
  auto& session = d->add_flid_session(flid_mode::ds, {attacker});
  d->run_until(sim::seconds(30.0));
  EXPECT_GT(d->sigma().stats().invalid_keys, 0u);
  // The attacker still reaches the top in an *uncongested* network — that is
  // its honest entitlement; guessing added nothing (all guesses invalid).
  (void)session;
  sim::link* iface = d->net().next_hop(
      d->router("r"), session.receivers.front()->host());
  EXPECT_GT(d->sigma().guess_tally(iface), 0u);
}

TEST_F(sigma_fixture, stale_authorization_is_pruned) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  d->run_until(sim::seconds(20.0));
  const auto before = d->net().get(d->router("r"))->stats().policy_denied;
  // Destroy the receiver so no more subscriptions arrive; the router must
  // prune within ~2 slots.
  session.receivers.clear();
  d->run_until(sim::seconds(30.0));
  EXPECT_GT(d->sigma().stats().stale_prunes, 0u);
  // After pruning, denials stop growing (traffic no longer reaches it).
  const auto mid = d->net().get(d->router("r"))->stats().policy_denied;
  d->run_until(sim::seconds(40.0));
  const auto after = d->net().get(d->router("r"))->stats().policy_denied;
  EXPECT_LE(after - mid, mid - before + 8);
}

TEST_F(sigma_fixture, guess_tally_decays_instead_of_accumulating) {
  // Regression for an unbounded guessing tally: the tally is windowed by
  // slot, so a long run of steady guessing keeps a bounded recent count while
  // the cumulative invalid_keys counter grows with run length.
  receiver_options attacker;
  attacker.attack =
      adversary::inflate_once(sim::seconds(5.0), adversary::key_mode::guess);
  auto& session = d->add_flid_session(flid_mode::ds, {attacker});
  d->run_until(sim::seconds(40.0));
  sim::link* iface = d->net().next_hop(
      d->router("r"), session.receivers.front()->host());
  const std::uint64_t tally = d->sigma().guess_tally(iface);
  EXPECT_GT(tally, 0u);
  // ~35 s of guessing spans ~140 slots; the windowed tally must reflect only
  // the trailing handful of them, not the whole run.
  EXPECT_LT(2 * tally, d->sigma().stats().invalid_keys);
}

namespace {
/// Router-alert interceptor that loses every control shard of every third
/// slot's key block (so those blocks never decode) and hands everything else
/// to the SIGMA agent untouched.
struct lossy_ctrl final : sim::agent {
  explicit lossy_ctrl(sim::agent& inner) : inner(inner) {}
  sim::agent& inner;
  bool handle_packet(const sim::packet& p, sim::link* arrival) override {
    const auto* ctrl = sim::header_as<sim::sigma_ctrl>(p);
    if (ctrl != nullptr && ctrl->target_slot % 3 == 0) return true;
    return inner.handle_packet(p, arrival);
  }
};
}  // namespace

TEST_F(sigma_fixture, parked_subscriptions_stay_bounded_under_ctrl_loss) {
  // A subscription that races ahead of its key block is parked until the
  // block decodes. When the block's shards are lost for good it never does;
  // the router must still drop the parked entries once the slot leaves its
  // key history, or a guessing attacker grows the table for the whole run.
  receiver_options attacker;
  attacker.attack =
      adversary::inflate_once(sim::seconds(5.0), adversary::key_mode::guess);
  auto& session =
      d->add_flid_session(flid_mode::ds, {receiver_options{}, attacker});
  lossy_ctrl lossy(d->sigma());
  d->net().get(d->router("r"))->set_alert_interceptor(&lossy);
  d->run_until(sim::seconds(20.0));
  const std::size_t early = d->sigma().parked_subscriptions();
  const std::uint64_t parked_early = d->sigma().stats().pending_subscriptions;
  d->run_until(sim::seconds(60.0));
  const std::uint64_t parked_total = d->sigma().stats().pending_subscriptions;
  // Parking kept happening all run long...
  EXPECT_GT(parked_total, 2 * parked_early);
  // ...yet the live table did not grow with it.
  EXPECT_LE(d->sigma().parked_subscriptions(), early + 32);
  EXPECT_LT(4 * d->sigma().parked_subscriptions(), parked_total);
  (void)session;
}

namespace {
/// Records the shim-tag slot of every data packet delivered to its host.
struct slot_recorder final : sim::agent {
  std::set<std::int64_t> seen;
  bool handle_packet(const sim::packet& p, sim::link*) override {
    if (p.tag.has_value()) seen.insert(p.tag->slot);
    return false;
  }
};
}  // namespace

TEST_F(sigma_fixture, probation_block_silences_at_least_one_complete_slot) {
  // Boundary pin for the ">= one time slot" cutoff of section 3.2.2: however
  // aggressively a keyless freeloader rejoins the moment its block expires,
  // every probation block must leave at least one tagged slot with zero
  // deliveries. A blocked_until that undershot the slot boundary would let
  // the rejoin's grace window reach back into the deny slot and shrink the
  // gap below one slot.
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto freeloader = d->attach_host("freeloader", "r");
  d->net().get(freeloader)->host_join(session.config.group(1));
  slot_recorder rec;
  d->net().get(freeloader)->add_agent(&rec);

  const auto send_join = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d->router("r"));
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(1)};
    d->net().get(freeloader)->send(std::move(p));
  };
  d->sched().at(sim::seconds(2.0), send_join);
  // Poll-driven rejoiner: once a probation block fires, hammer session-joins
  // every 10 ms until one is admitted (joins during the block are refused and
  // change nothing), so re-admission lands within 10 ms of block expiry.
  std::uint64_t blocks_seen = 0;
  std::uint64_t joins_seen = 0;
  bool hammering = false;
  const auto poll = [&] {
    const auto& st = d->sigma().stats();
    if (st.probation_blocks > blocks_seen) {
      blocks_seen = st.probation_blocks;
      hammering = true;
    }
    if (st.session_joins > joins_seen) {
      joins_seen = st.session_joins;
      hammering = false;
    }
    if (hammering) send_join();
  };
  for (int k = 0; k < 1800; ++k) {
    d->sched().at(sim::seconds(2.0) + k * sim::milliseconds(10), poll);
  }
  d->run_until(sim::seconds(20.0));

  // Several grace -> block -> instant-rejoin cycles ran...
  EXPECT_GE(d->sigma().stats().probation_blocks, 3u);
  EXPECT_GE(d->sigma().stats().session_joins_refused, 1u);
  // ...and every cycle boundary skips the deny slot entirely: consecutive
  // delivered tags across a block always differ by >= 2 (the denied slot is
  // completely silent), and there are at least as many such gaps as cycles
  // minus the final (possibly truncated) one.
  const std::vector<std::int64_t> tags(rec.seen.begin(), rec.seen.end());
  ASSERT_GT(tags.size(), 3u);
  std::uint64_t gaps = 0;
  for (std::size_t i = 1; i < tags.size(); ++i) {
    if (tags[i] - tags[i - 1] > 1) {
      ++gaps;
      EXPECT_GE(tags[i] - tags[i - 1], 2);
    }
  }
  EXPECT_GE(gaps + 1, d->sigma().stats().probation_blocks);
  EXPECT_GE(gaps, 3u);
}

TEST(sigma_router_memory, rejoin_inherits_debt_and_still_blocked_means_refused) {
  // The adaptive_churn loophole, closed: unsubscribing mid-grace no longer
  // wipes the probation debt. A rejoin within the memory window inherits it
  // (no fresh grace), the cutoff escalates with each keyless rejoin, and a
  // join while a remembered cutoff is still running is refused outright.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.probation_memory_slots = 8;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto freeloader = d.attach_host("freeloader", "r");
  d.net().get(freeloader)->host_join(session.config.group(1));
  const auto send_join = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(1)};
    d.net().get(freeloader)->send(std::move(p));
  };
  const auto send_unsub = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = sim::sigma_unsubscribe{session.config.session_id,
                                   {session.config.group(1)}};
    d.net().get(freeloader)->send(std::move(p));
  };
  // The churn cycle, hand-scripted (slots are 250 ms):
  //   2.00  join            -> fresh grace window, packets flow
  //   2.30  unsubscribe     -> mid-grace wipe; debt (pending probation) is
  //                            remembered instead of vanishing
  //   2.60  join            -> inherits: NO fresh grace, first packet converts
  //                            to a 1-slot cutoff (k: 0 -> 1)
  //   3.20  unsubscribe     -> cutoff served but k = 1 is remembered
  //   3.40  join            -> inherits k = 1: graceless, first packet
  //                            converts to an escalated 2-slot cutoff (~0.5 s)
  //   3.60  unsubscribe     -> cutoff still running; remembered with deadline
  //   3.75  join            -> remembered cutoff still active: refused
  //                            (an unescalated 1-slot cutoff would already
  //                            have expired by now)
  d.sched().at(sim::seconds(2.0), send_join);
  d.sched().at(sim::seconds(2.3), send_unsub);
  d.sched().at(sim::seconds(2.6), send_join);
  d.sched().at(sim::seconds(3.2), send_unsub);
  d.sched().at(sim::seconds(3.4), send_join);
  d.sched().at(sim::seconds(3.6), send_unsub);
  d.sched().at(sim::seconds(3.75), send_join);
  d.run_until(sim::seconds(8.0));

  const auto& sg = d.sigma().stats();
  EXPECT_GE(sg.memory_records, 3u);
  EXPECT_GE(sg.memory_inherits, 2u);
  EXPECT_GE(sg.memory_refusals, 1u);
  EXPECT_GE(sg.probation_blocks, 2u);
  // Only the first window's packets ever arrived: the inherited rejoins were
  // graceless.
  const auto delivered = d.net().get(freeloader)->stats().delivered_local;
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, 30u);
  (void)session;
}

TEST(sigma_router_memory, debt_expires_after_the_memory_window) {
  // The memory is a window, not a life sentence: a rejoin after
  // probation_memory_slots slots past the served cutoff starts a fresh grace
  // window again (the remembered debt has passed its deadline).
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.probation_memory_slots = 4;  // 1 s at 250 ms slots
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto freeloader = d.attach_host("freeloader", "r");
  d.net().get(freeloader)->host_join(session.config.group(1));
  const auto send_join = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(1)};
    d.net().get(freeloader)->send(std::move(p));
  };
  const auto send_unsub = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = sim::sigma_unsubscribe{session.config.session_id,
                                   {session.config.group(1)}};
    d.net().get(freeloader)->send(std::move(p));
  };
  d.sched().at(sim::seconds(2.0), send_join);
  d.sched().at(sim::seconds(2.3), send_unsub);  // mid-grace debt remembered
  const auto before_window = [&] {
    return d.net().get(freeloader)->stats().delivered_local;
  };
  std::uint64_t delivered_at_rejoin = 0;
  d.sched().at(sim::seconds(5.0), [&] {
    delivered_at_rejoin = before_window();
    send_join();  // 2.7 s > 4-slot window past the wipe: debt expired
  });
  d.run_until(sim::seconds(6.2));

  EXPECT_GE(d.sigma().stats().memory_records, 1u);
  EXPECT_EQ(d.sigma().stats().memory_inherits, 0u);
  EXPECT_EQ(d.sigma().stats().memory_refusals, 0u);
  // The late rejoin got a fresh grace window: packets flowed again.
  EXPECT_GT(d.net().get(freeloader)->stats().delivered_local,
            delivered_at_rejoin);
  (void)session;
}

TEST(sigma_router_memory, debt_cutoff_and_tally_stay_on_their_own_port) {
  // Two hosts behind one edge router. The churner's remembered debt, the
  // cutoff it converts into and its guessing tally belong to its own
  // interface: the neighbour's keyless join right after still gets a fresh
  // grace window, and its tally reads 0.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.probation_memory_slots = 8;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto churner = d.attach_host("churner", "r");
  const auto neighbour = d.attach_host("neighbour", "r");
  const int sid = session.config.session_id;
  const sim::group_addr minimal = session.config.group(1);
  const auto send = [&](sim::node_id from, sim::header hdr) {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = std::move(hdr);
    d.net().get(from)->send(std::move(p));
  };
  const auto join = [&](sim::node_id from) {
    send(from, sim::sigma_session_join{sid, minimal});
  };
  slot_recorder churner_slots;
  slot_recorder neighbour_slots;
  d.net().get(churner)->add_agent(&churner_slots);
  d.net().get(neighbour)->add_agent(&neighbour_slots);
  d.net().get(churner)->host_join(minimal);
  d.net().get(neighbour)->host_join(minimal);

  //   2.00  churner joins        -> fresh grace window
  //   2.30  churner unsubscribes -> the pending probation is remembered
  //   2.60  churner rejoins      -> inherits the debt: no grace, its first
  //                                 packet converts into a cutoff
  //   2.70  churner guesses a key for the slot after next
  //   2.75  neighbour joins      -> not refused, fresh grace window
  d.sched().at(sim::seconds(2.0), [&] { join(churner); });
  d.sched().at(sim::seconds(2.3), [&] {
    send(churner, sim::sigma_unsubscribe{sid, {minimal}});
  });
  d.sched().at(sim::seconds(2.6), [&] { join(churner); });
  d.sched().at(sim::seconds(2.7), [&] {
    const std::int64_t slot =
        d.sched().now() / session.config.slot_duration + key_lead_slots;
    send(churner, sim::sigma_subscribe{sid, slot,
                                       {{minimal, crypto::group_key{0xBAD}}},
                                       1});
  });
  d.sched().at(sim::seconds(2.75), [&] { join(neighbour); });
  d.run_until(sim::seconds(4.0));

  const auto& sg = d.sigma().stats();
  EXPECT_EQ(sg.memory_records, 1u);
  EXPECT_EQ(sg.memory_inherits, 1u);
  EXPECT_EQ(sg.memory_refusals, 0u);
  EXPECT_EQ(sg.session_joins_refused, 0u);
  EXPECT_EQ(sg.session_joins, 4u);  // the session's own receiver joins too
  // The churner's data stopped at its unsubscribe (slot 9, 250 ms slots);
  // the neighbour's began with its own join (slot 11).
  ASSERT_FALSE(churner_slots.seen.empty());
  EXPECT_LE(*churner_slots.seen.rbegin(), 9);
  ASSERT_FALSE(neighbour_slots.seen.empty());
  EXPECT_GE(*neighbour_slots.seen.begin(), 11);
  EXPECT_GE(sg.probation_blocks, 2u);  // churner's cutoff + neighbour's expiry
  sim::link* to_churner = d.net().next_hop(d.router("r"), churner);
  sim::link* to_neighbour = d.net().next_hop(d.router("r"), neighbour);
  EXPECT_NE(to_churner->port(), to_neighbour->port());
  EXPECT_EQ(d.sigma().guess_tally(to_churner), 1u);
  EXPECT_EQ(d.sigma().guess_tally(to_neighbour), 0u);
}

TEST(sigma_router_memory, unsubscribe_naming_an_unannounced_session_is_refused) {
  // An unsubscribe is untrusted input. One that names a session never
  // announced must not wipe the group's state: that wipe recorded no debt
  // (there was no slot clock to time it with), so the rejoin after it got a
  // fresh grace window and the adaptive_churn loophole reopened.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.probation_memory_slots = 8;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto churner = d.attach_host("churner", "r");
  const sim::group_addr minimal = session.config.group(1);
  const auto send = [&](sim::header hdr) {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = std::move(hdr);
    d.net().get(churner)->send(std::move(p));
  };
  const auto join = [&] {
    send(sim::sigma_session_join{session.config.session_id, minimal});
  };
  slot_recorder rec;
  d.net().get(churner)->add_agent(&rec);
  d.net().get(churner)->host_join(minimal);
  //   2.00  join                           -> fresh grace window
  //   2.30  unsubscribe naming session 999 -> refused: the grace runs on
  //                                           and ends in a cutoff
  //   2.60  rejoin                         -> no fresh grace
  //   2.90  unsubscribe naming the session -> the debt is remembered
  //   3.10  rejoin                         -> inherits it: no grace either
  d.sched().at(sim::seconds(2.0), join);
  d.sched().at(sim::seconds(2.3),
               [&] { send(sim::sigma_unsubscribe{999, {minimal}}); });
  d.sched().at(sim::seconds(2.6), join);
  d.sched().at(sim::seconds(2.9), [&] {
    send(sim::sigma_unsubscribe{session.config.session_id, {minimal}});
  });
  d.sched().at(sim::seconds(3.1), join);
  d.run_until(sim::seconds(5.0));

  const auto& sg = d.sigma().stats();
  EXPECT_GE(sg.memory_records, 1u);
  EXPECT_GE(sg.memory_inherits, 1u);
  // The 2.60 rejoin met the cutoff the first grace ended in, and is no
  // fresh admission: the session's own receiver, 2.00 and 3.10 are.
  EXPECT_GE(sg.session_joins_refused, 1u);
  EXPECT_EQ(sg.session_joins, 3u);
  // Only the first grace window's data reached the churner (250 ms slots:
  // the join at 2.00 s is slot 8).
  ASSERT_FALSE(rec.seen.empty());
  EXPECT_LE(*rec.seen.rbegin(), 9);
}

// --- Per-slot state: what the router keeps, and what it refuses to keep ----

using mcc::testing::sigma_harness;

/// Three key pairs no router will ever hold a tuple for.
std::vector<std::pair<sim::group_addr, crypto::group_key>> junk_pairs() {
  return {{sigma_harness::group(1), crypto::group_key{0xBAD1}},
          {sigma_harness::group(2), crypto::group_key{0xBAD2}},
          {sigma_harness::group(3), crypto::group_key{0xBAD3}}};
}

TEST(sigma_router_slots, subscription_for_unannounced_session_is_refused) {
  // No key block for this session can ever arrive, so parking its keys would
  // hold them for the whole run.
  sigma_harness h;
  h.subscribe(99, 2, junk_pairs());
  EXPECT_EQ(h.sigma->parked_subscriptions(), 0u);
  EXPECT_EQ(h.sigma->stats().invalid_keys, 3u);
  EXPECT_EQ(h.sigma->stats().pending_subscriptions, 0u);
  // The subscription is still acknowledged.
  h.sched.run();
  EXPECT_EQ(h.net.get(h.host)->stats().delivered_local, 1u);
}

TEST(sigma_router_slots, subscription_far_ahead_of_the_session_is_refused) {
  sigma_harness h;
  delta_layered_sender delta(sigma_harness::session_id, 4, 16, 11);
  // One shard of slot 10's block: not decodable, but the newest slot the
  // router has seen is now 10.
  h.feed(h.make_shards(delta, 10, 4, 4).front());
  h.subscribe(sigma_harness::session_id, 10 + 1'000'000, junk_pairs());
  EXPECT_EQ(h.sigma->parked_subscriptions(), 0u);
  EXPECT_EQ(h.sigma->stats().invalid_keys, 3u);
  // One slot past the key history is refused; the last slot within it still
  // parks (its block may yet arrive).
  h.subscribe(sigma_harness::session_id, 10 + key_history_slots + 1,
              junk_pairs());
  EXPECT_EQ(h.sigma->parked_subscriptions(), 0u);
  EXPECT_EQ(h.sigma->stats().invalid_keys, 6u);
  h.subscribe(sigma_harness::session_id, 10 + key_history_slots, junk_pairs());
  EXPECT_EQ(h.sigma->parked_subscriptions(), 3u);
  EXPECT_EQ(h.sigma->stats().invalid_keys, 6u);
  h.sched.run();
  EXPECT_EQ(h.net.get(h.host)->stats().delivered_local, 3u);
}

TEST(sigma_router_slots, control_shards_from_a_host_are_refused) {
  // Key blocks come down the session's tree from its source. A receiver
  // host that forges a whole block for a far-future slot must neither
  // install its keys nor move the session's newest slot.
  sigma_harness h;
  delta_layered_sender forger(sigma_harness::session_id, 4, 16, 21);
  constexpr std::int64_t far = 1'000'000;
  for (const auto& p : h.make_shards(forger, far, 4, 4)) {
    h.sigma->handle_packet(p, h.iface->reverse());
  }
  EXPECT_EQ(h.sigma->stats().ctrl_refused, 8u);
  EXPECT_EQ(h.sigma->stats().ctrl_shards, 0u);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 0u);
  h.subscribe(sigma_harness::session_id, far + key_lead_slots,
              {{sigma_harness::group(1),
                forger.keys_for(far + key_lead_slots)->top[1]}});
  EXPECT_EQ(h.sigma->stats().valid_keys, 0u);
  EXPECT_EQ(h.sigma->parked_subscriptions(), 0u);

  // The source's own blocks still decode, and its keys still validate.
  delta_layered_sender delta(sigma_harness::session_id, 4, 16, 22);
  h.decode_slot(delta, 0);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 1u);
  h.subscribe(sigma_harness::session_id, key_lead_slots,
              {{sigma_harness::group(1),
                delta.keys_for(key_lead_slots)->top[1]}});
  EXPECT_EQ(h.sigma->stats().valid_keys, 1u);
  EXPECT_EQ(h.sigma->stats().ctrl_refused, 8u);
}

TEST(sigma_router_slots, shards_off_the_announced_slot_clock_are_refused) {
  // Even on the reverse path, a shard is checked against the session's
  // announced clock (slot = now / slot_duration): its target must lie within
  // the key history of it, and its session and slot length must be the
  // announced ones.
  sigma_harness h;
  delta_layered_sender delta(sigma_harness::session_id, 4, 16, 31);
  // At time 0 a block for target slot key_history_slots is in bounds; one
  // slot further is not.
  h.deliver(h.make_shards(delta, key_history_slots - key_lead_slots, 4, 4)[0]);
  EXPECT_EQ(h.sigma->stats().ctrl_shards, 1u);
  h.deliver(
      h.make_shards(delta, key_history_slots - key_lead_slots + 1, 4, 4)[0]);
  EXPECT_EQ(h.sigma->stats().ctrl_shards, 1u);
  EXPECT_EQ(h.sigma->stats().ctrl_refused, 1u);

  // A session that was never announced, and a slot length that differs
  // from the announcement.
  auto unknown = h.make_shards(delta, 0, 4, 4).front();
  std::get<sim::sigma_ctrl>(unknown.hdr).session_id = 99;
  h.deliver(unknown);
  auto slower = h.make_shards(delta, 0, 4, 4).front();
  std::get<sim::sigma_ctrl>(slower.hdr).slot_duration = sim::milliseconds(500);
  h.deliver(slower);
  EXPECT_EQ(h.sigma->stats().ctrl_shards, 1u);
  EXPECT_EQ(h.sigma->stats().ctrl_refused, 3u);

  // Behind the clock: at slot 100 a block for target slot 12 is stale.
  h.sched.run_until(100 * sim::milliseconds(250));
  for (const auto& p : h.make_shards(delta, 10, 4, 4)) h.deliver(p);
  EXPECT_EQ(h.sigma->stats().ctrl_refused, 11u);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 0u);
}

TEST(sigma_router_slots, a_far_future_shard_from_upstream_moves_nothing) {
  // A shard for a slot 10^6 ahead used to move the session's window and
  // abort the run once live slots spanned too wide. Now it is refused, and
  // the session's own blocks keep decoding and validating.
  sigma_harness h;
  delta_layered_sender delta(sigma_harness::session_id, 4, 16, 32);
  h.decode_slot(delta, 0);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 1u);
  delta_layered_sender forger(sigma_harness::session_id, 4, 16, 33);
  constexpr std::int64_t far = 1'000'000;
  for (const auto& p : h.make_shards(forger, far, 4, 4)) h.deliver(p);
  EXPECT_EQ(h.sigma->stats().ctrl_refused, 8u);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 1u);
  h.subscribe(sigma_harness::session_id, far + key_lead_slots,
              {{sigma_harness::group(1),
                forger.keys_for(far + key_lead_slots)->top[1]}});
  EXPECT_EQ(h.sigma->stats().valid_keys, 0u);
  EXPECT_EQ(h.sigma->parked_subscriptions(), 0u);

  h.decode_slot(delta, 1);
  EXPECT_EQ(h.sigma->stats().blocks_decoded, 2u);
  h.subscribe(sigma_harness::session_id, 1 + key_lead_slots,
              {{sigma_harness::group(1),
                delta.keys_for(1 + key_lead_slots)->top[1]}});
  EXPECT_EQ(h.sigma->stats().valid_keys, 1u);
}

TEST(sigma_router_slots, key_tuples_are_kept_for_the_key_history) {
  // After the block for target slot T decodes, the tuples of T - 8 still
  // validate and those of T - 9 are gone.
  sigma_harness h;
  delta_layered_sender delta(sigma_harness::session_id, 4, 16, 12);
  std::vector<crypto::group_key> top1;  // group 1's key, by target slot
  for (std::int64_t slot = 0; slot <= 20; ++slot) {
    h.decode_slot(delta, slot);
    top1.push_back(delta.keys_for(slot + key_lead_slots)->top[1]);
  }
  const std::int64_t newest = 20 + key_lead_slots;
  const auto key_of = [&](std::int64_t target) {
    return top1[static_cast<std::size_t>(target - key_lead_slots)];
  };
  const std::int64_t oldest = newest - key_history_slots;
  h.subscribe(sigma_harness::session_id, oldest,
              {{sigma_harness::group(1), key_of(oldest)}});
  EXPECT_EQ(h.sigma->stats().valid_keys, 1u);
  h.subscribe(sigma_harness::session_id, oldest - 1,
              {{sigma_harness::group(1), key_of(oldest - 1)}});
  EXPECT_EQ(h.sigma->stats().valid_keys, 1u);
  EXPECT_EQ(h.sigma->stats().invalid_keys, 1u);
  EXPECT_EQ(h.sigma->parked_subscriptions(), 0u);
}

TEST(sigma_router_slots, guess_tally_keeps_the_history_of_the_newest_guess) {
  sigma_harness h;
  delta_layered_sender delta(sigma_harness::session_id, 4, 16, 13);
  for (std::int64_t slot = 0; slot <= 10; ++slot) h.decode_slot(delta, slot);
  const auto guess = [&](std::int64_t slot) {
    h.subscribe(sigma_harness::session_id, slot,
                {{sigma_harness::group(1), crypto::group_key{0xBAD}}});
  };
  // Tuples are held for target slots 4..12; guess at both ends.
  guess(4);
  guess(12);
  EXPECT_EQ(h.sigma->guess_tally(h.iface), 2u);
  // A guess at 13 keeps 5..13: slot 4's bucket (13 - 9) falls off, slot 5's
  // (13 - 8) would stay.
  h.decode_slot(delta, 11);
  guess(13);
  EXPECT_EQ(h.sigma->guess_tally(h.iface), 2u);
  guess(5);
  EXPECT_EQ(h.sigma->guess_tally(h.iface), 3u);
  EXPECT_EQ(h.sigma->stats().invalid_keys, 4u);
}

TEST(sigma_router, unsubscribes_accompany_downgrades_under_congestion) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3;  // the session must repeatedly shed layers
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(60.0));
  EXPECT_GT(session.receiver().stats().downgrades, 0u);
  EXPECT_GT(d.sigma().stats().unsubscribes, 0u);
}

}  // namespace
}  // namespace mcc::core
