#include "crypto/prng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/zipf.h"

namespace mcc::crypto {
namespace {

TEST(prng, deterministic_for_equal_seeds) {
  prng a(42);
  prng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(prng, different_seeds_diverge) {
  prng a(1);
  prng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(prng, uniform_is_in_unit_interval) {
  prng g(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(prng, uniform_mean_near_half) {
  prng g(11);
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += g.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(prng, uniform_range_respects_bounds) {
  prng g(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform(3.0, 7.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(prng, uniform_int_covers_range_inclusively) {
  prng g(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(g.uniform_int(1, 6));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(prng, uniform_int_single_point_range) {
  prng g(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(g.uniform_int(5, 5), 5);
}

TEST(prng, uniform_int_rejects_empty_range) {
  prng g(23);
  EXPECT_THROW((void)g.uniform_int(3, 2), util::invariant_error);
}

TEST(prng, bernoulli_matches_probability) {
  prng g(29);
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (g.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(prng, bernoulli_extremes) {
  prng g(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(g.bernoulli(0.0));
    EXPECT_TRUE(g.bernoulli(1.0));
  }
}

TEST(prng, exponential_mean) {
  prng g(37);
  double sum = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += g.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(prng, exponential_rejects_nonpositive_mean) {
  prng g(41);
  EXPECT_THROW((void)g.exponential(0.0), util::invariant_error);
  EXPECT_THROW((void)g.exponential(-1.0), util::invariant_error);
}

TEST(prng, fork_streams_are_independent) {
  prng parent(99);
  prng a = parent.fork(1);
  prng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(prng, fork_is_deterministic) {
  prng p1(99);
  prng p2(99);
  prng a = p1.fork(7);
  prng b = p2.fork(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(prng, splitmix_is_pure) {
  std::uint64_t s1 = 5;
  std::uint64_t s2 = 5;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

class prng_bit_balance : public ::testing::TestWithParam<int> {};

TEST_P(prng_bit_balance, each_bit_is_roughly_fair) {
  prng g(static_cast<std::uint64_t>(GetParam()) * 1234567 + 1);
  const int bit = GetParam();
  int ones = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    if ((g.next() >> bit) & 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.02) << "bit " << bit;
}

INSTANTIATE_TEST_SUITE_P(all_positions, prng_bit_balance,
                         ::testing::Values(0, 1, 7, 15, 31, 47, 63));

}  // namespace
}  // namespace mcc::crypto

// ---------------------------------------------------------------------------
// util::zipf_sampler: the deterministic inverse-CDF sampler driven by any
// uniform stream (the population layer's member-demand distribution).
// ---------------------------------------------------------------------------

namespace mcc::util {
namespace {

TEST(zipf_sampler, pmf_is_a_normalized_decaying_distribution) {
  const zipf_sampler z(10, 1.1);
  double total = 0.0;
  for (int k = 1; k <= 10; ++k) {
    const double p = z.pmf(k);
    EXPECT_GT(p, 0.0) << "k=" << k;
    if (k > 1) {
      EXPECT_LT(p, z.pmf(k - 1)) << "k=" << k;
    }
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(zipf_sampler, empirical_frequencies_match_pmf) {
  const zipf_sampler z(10, 1.1);
  crypto::prng g(101);
  std::vector<int> counts(11, 0);
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const int k = z.sample(g.uniform());
    ASSERT_GE(k, 1);
    ASSERT_LE(k, 10);
    ++counts[k];
  }
  for (int k = 1; k <= 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.pmf(k), 0.01)
        << "k=" << k;
  }
}

TEST(zipf_sampler, zero_exponent_is_uniform) {
  const zipf_sampler z(8, 0.0);
  for (int k = 1; k <= 8; ++k) EXPECT_NEAR(z.pmf(k), 1.0 / 8.0, 1e-12);
}

TEST(zipf_sampler, heavier_exponent_concentrates_the_base_rank) {
  const zipf_sampler light(10, 0.5);
  const zipf_sampler heavy(10, 2.0);
  EXPECT_GT(heavy.pmf(1), light.pmf(1));
  EXPECT_LT(heavy.pmf(10), light.pmf(10));
}

TEST(zipf_sampler, sample_is_a_pure_function_of_the_variate) {
  const zipf_sampler a(10, 1.1);
  const zipf_sampler b(10, 1.1);
  crypto::prng g(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = g.uniform();
    EXPECT_EQ(a.sample(u), b.sample(u));
  }
}

TEST(zipf_sampler, edge_variates_map_to_the_extreme_ranks) {
  const zipf_sampler z(10, 1.1);
  EXPECT_EQ(z.sample(0.0), 1);
  EXPECT_EQ(z.sample(1.0), 10);
  // Out-of-range variates clamp instead of indexing out of the table.
  EXPECT_EQ(z.sample(-0.5), 1);
  EXPECT_EQ(z.sample(2.0), 10);
}

TEST(zipf_sampler, sample_bits_matches_prng_uniform_mapping) {
  const zipf_sampler z(10, 1.1);
  crypto::prng bits(55);
  crypto::prng vals(55);
  for (int i = 0; i < 1000; ++i) {
    // prng::uniform is (next() >> 11) * 2^-53; sample_bits applies the same
    // mapping, so identical streams must land on identical ranks.
    EXPECT_EQ(z.sample_bits(bits.next()), z.sample(vals.uniform()));
  }
}

TEST(zipf_sampler, single_rank_degenerates) {
  const zipf_sampler z(1, 1.1);
  EXPECT_EQ(z.sample(0.0), 1);
  EXPECT_EQ(z.sample(0.999), 1);
  EXPECT_NEAR(z.pmf(1), 1.0, 1e-12);
}

TEST(zipf_sampler, rejects_bad_parameters) {
  EXPECT_THROW(zipf_sampler(0, 1.0), invariant_error);
  EXPECT_THROW(zipf_sampler(10, -0.5), invariant_error);
  const zipf_sampler z(10, 1.1);
  EXPECT_THROW((void)z.pmf(0), invariant_error);
  EXPECT_THROW((void)z.pmf(11), invariant_error);
}

}  // namespace
}  // namespace mcc::util
