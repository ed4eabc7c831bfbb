#include "util/flags.h"

#include <gtest/gtest.h>

#include "util/require.h"

namespace mcc::util {
namespace {

TEST(flags, defaults_apply_without_arguments) {
  flag_set flags;
  flags.add("duration", "200", "seconds");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.i64("duration"), 200);
}

TEST(flags, equals_syntax) {
  flag_set flags;
  flags.add("rate", "1.5", "multiplier");
  const char* argv[] = {"prog", "--rate=2.25"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_DOUBLE_EQ(flags.f64("rate"), 2.25);
}

TEST(flags, space_syntax) {
  flag_set flags;
  flags.add("sessions", "2", "count");
  const char* argv[] = {"prog", "--sessions", "18"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_EQ(flags.i64("sessions"), 18);
}

TEST(flags, boolean_values) {
  flag_set flags;
  flags.add("verbose", "false", "chatty output");
  const char* argv[] = {"prog", "--verbose=true"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_TRUE(flags.boolean("verbose"));
}

TEST(flags, unknown_flag_fails) {
  flag_set flags;
  flags.add("known", "1", "");
  const char* argv[] = {"prog", "--unknown=3"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(flags, missing_value_fails) {
  flag_set flags;
  flags.add("n", "1", "");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(flags, help_requests_usage) {
  flag_set flags;
  flags.add("n", "1", "");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(flags, positional_arguments_collected) {
  flag_set flags;
  flags.add("n", "1", "");
  const char* argv[] = {"prog", "input.txt", "--n=5", "output.txt"};
  ASSERT_TRUE(flags.parse(4, argv));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
  EXPECT_EQ(flags.i64("n"), 5);
}

TEST(flags, bad_integer_value_fails_parse) {
  flag_set flags;
  flags.add("sessions", "2", "count");
  const char* argv[] = {"prog", "--sessions=eighteen"};
  EXPECT_FALSE(flags.parse(2, argv));
  // The default survives a failed parse.
  EXPECT_EQ(flags.i64("sessions"), 2);
}

TEST(flags, bad_float_value_fails_parse) {
  flag_set flags;
  flags.add("rate", "1.5", "multiplier");
  const char* argv[] = {"prog", "--rate", "fast"};
  EXPECT_FALSE(flags.parse(3, argv));
}

TEST(flags, trailing_garbage_fails_parse) {
  flag_set flags;
  flags.add("duration", "200", "seconds");
  const char* argv[] = {"prog", "--duration=200abc"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(flags, non_finite_and_hexfloat_values_fail_parse) {
  for (const char* bad : {"nan", "inf", "-inf", "0x12"}) {
    flag_set flags;
    flags.add("duration", "200", "seconds");
    const std::string arg = std::string("--duration=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_FALSE(flags.parse(2, argv)) << bad;
  }
}

TEST(flags, integer_flag_accepts_negative_and_float_flag_accepts_exponent) {
  flag_set flags;
  flags.add("offset", "0", "signed");
  flags.add("bps", "1e6", "rate");
  const char* argv[] = {"prog", "--offset=-42", "--bps=2.5e7"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_EQ(flags.i64("offset"), -42);
  EXPECT_DOUBLE_EQ(flags.f64("bps"), 2.5e7);
}

TEST(flags, integer_default_accepts_fractional_value_read_via_f64) {
  // Benches declare e.g. --duration 120 but read it with f64(): a
  // fractional value must parse.
  flag_set flags;
  flags.add("duration", "120", "seconds");
  const char* argv[] = {"prog", "--duration=12.5"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_DOUBLE_EQ(flags.f64("duration"), 12.5);
  // ...but i64() on a genuinely fractional value is an error, while
  // integral spellings like 1e3 convert cleanly.
  EXPECT_THROW((void)flags.i64("duration"), invariant_error);
  flag_set flags2;
  flags2.add("count", "1", "count");
  const char* argv2[] = {"prog", "--count=1e3"};
  ASSERT_TRUE(flags2.parse(2, argv2));
  EXPECT_EQ(flags2.i64("count"), 1000);
}

TEST(flags, string_flags_skip_numeric_validation) {
  flag_set flags;
  flags.add("label", "run", "free-form");
  const char* argv[] = {"prog", "--label=not-a-number"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_EQ(flags.str("label"), "not-a-number");
}

TEST(flags, repeated_flag_is_last_wins) {
  flag_set flags;
  flags.add("seed", "1", "rng seed");
  const char* argv[] = {"prog", "--seed=5", "--seed", "9", "--seed=7"};
  ASSERT_TRUE(flags.parse(5, argv));
  EXPECT_EQ(flags.i64("seed"), 7);
}

TEST(flags, accessor_on_non_numeric_string_throws_friendly_error) {
  flag_set flags;
  flags.add("label", "run", "free-form");
  EXPECT_THROW((void)flags.i64("label"), invariant_error);
  EXPECT_THROW((void)flags.f64("label"), invariant_error);
}

TEST(flags, duplicate_declaration_throws) {
  flag_set flags;
  flags.add("x", "1", "");
  EXPECT_THROW(flags.add("x", "2", ""), invariant_error);
}

TEST(flags, undeclared_lookup_throws) {
  flag_set flags;
  EXPECT_THROW((void)flags.str("nope"), invariant_error);
}

TEST(flags, enum_flag_accepts_listed_values) {
  flag_set flags;
  flags.add_enum("cm", "off", "shared congestion manager",
                 {"off", "on", "both"});
  const char* argv[] = {"prog", "--cm=both"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_EQ(flags.str("cm"), "both");
}

TEST(flags, enum_flag_rejects_unlisted_value_at_parse_time) {
  // The friendly-UX contract: a typo'd enum fails the parse (with a
  // "expected one of ..." message on stderr), it does not fall through to a
  // silently-wrong default.
  flag_set flags;
  flags.add_enum("cm", "off", "shared congestion manager",
                 {"off", "on", "both"});
  const char* argv[] = {"prog", "--cm=bth"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(flags, enum_flag_default_survives_when_not_set) {
  flag_set flags;
  flags.add_enum("cm", "off", "shared congestion manager",
                 {"off", "on", "both"});
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.str("cm"), "off");
}

TEST(flags, enum_csv_flag_validates_every_element) {
  flag_set flags;
  flags.add_enum("qdisc", "droptail", "queue discipline(s)",
                 {"droptail", "ecn", "red", "codel", "all"},
                 /*csv_list=*/true);
  const char* ok[] = {"prog", "--qdisc=droptail,red,codel"};
  ASSERT_TRUE(flags.parse(2, ok));
  EXPECT_EQ(flags.str("qdisc"), "droptail,red,codel");

  flag_set flags2;
  flags2.add_enum("qdisc", "droptail", "queue discipline(s)",
                  {"droptail", "ecn", "red", "codel", "all"},
                  /*csv_list=*/true);
  const char* bad[] = {"prog", "--qdisc=droptail,rde"};
  EXPECT_FALSE(flags2.parse(2, bad));

  flag_set flags3;
  flags3.add_enum("qdisc", "droptail", "queue discipline(s)",
                  {"droptail", "ecn", "red", "codel", "all"},
                  /*csv_list=*/true);
  const char* empty[] = {"prog", "--qdisc=droptail,,red"};
  EXPECT_FALSE(flags3.parse(2, empty));  // empty elements are typos too
}

TEST(flags, enum_default_must_be_listed) {
  flag_set flags;
  EXPECT_THROW(flags.add_enum("cm", "of", "typo'd default",
                              {"off", "on", "both"}),
               invariant_error);
}

TEST(flags, enum_csv_all_alias_is_valid_only_on_its_own) {
  for (const char* value : {"all", "red", "droptail,red"}) {
    flag_set flags;
    flags.add_enum("qdisc", "droptail", "queue discipline(s)",
                   {"droptail", "red", "all"}, /*csv_list=*/true);
    const std::string arg = std::string("--qdisc=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_TRUE(flags.parse(2, argv)) << value;
  }
  for (const char* value : {"all,red", "red,all"}) {
    flag_set flags;
    flags.add_enum("qdisc", "droptail", "queue discipline(s)",
                   {"droptail", "red", "all"}, /*csv_list=*/true);
    const std::string arg = std::string("--qdisc=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_FALSE(flags.parse(2, argv)) << value;
  }
}

/// Parses one `--name=value` against a fresh flag set built by `declare`.
template <typename Declare>
bool parses(Declare declare, const std::string& name,
            const std::string& value) {
  flag_set flags;
  declare(flags);
  const std::string arg = "--" + name + "=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  return flags.parse(2, argv);
}

TEST(flags, range_accepts_its_inclusive_bounds) {
  const auto declare = [](flag_set& f) {
    f.add_range("frac", "0.5", "fraction", {.lo = 0.0, .hi = 1.0});
  };
  for (const char* v : {"0", "1", "0.25", "1e-3"}) {
    EXPECT_TRUE(parses(declare, "frac", v)) << v;
  }
}

TEST(flags, range_rejects_values_just_outside_its_bounds) {
  const auto declare = [](flag_set& f) {
    f.add_range("kbps", "250", "rate", {.lo = 50.0, .hi = 10e3});
  };
  for (const char* v : {"49.999", "10000.001", "-50", "fast", ""}) {
    EXPECT_FALSE(parses(declare, "kbps", v)) << v;
  }
  EXPECT_TRUE(parses(declare, "kbps", "50"));
  EXPECT_TRUE(parses(declare, "kbps", "10000"));
}

TEST(flags, one_sided_and_open_zero_bounds) {
  const auto at_least_5 = [](flag_set& f) {
    f.add_range("window", "40", "seconds", {.lo = 5.0});
  };
  EXPECT_TRUE(parses(at_least_5, "window", "5"));
  EXPECT_TRUE(parses(at_least_5, "window", "1e9"));
  EXPECT_FALSE(parses(at_least_5, "window", "4.99"));

  const auto positive = [](flag_set& f) {
    f.add_range("headroom", "1.3", "multiplier",
                {.lo = above_zero, .hi = 100.0});
  };
  EXPECT_FALSE(parses(positive, "headroom", "0"));
  EXPECT_FALSE(parses(positive, "headroom", "-1e-300"));
  EXPECT_TRUE(parses(positive, "headroom", "1e-300"));
  EXPECT_TRUE(parses(positive, "headroom", "100"));
}

TEST(flags, integer_range_rejects_fractions_but_accepts_integral_spellings) {
  const auto declare = [](flag_set& f) {
    f.add_range("members", "1000", "count",
                {.lo = 0, .hi = 1e7, .integer = true});
  };
  EXPECT_FALSE(parses(declare, "members", "2.5"));
  EXPECT_FALSE(parses(declare, "members", "8x"));
  EXPECT_TRUE(parses(declare, "members", "1e6"));
  EXPECT_TRUE(parses(declare, "members", "250.0"));

  flag_set flags;
  declare(flags);
  const char* argv[] = {"prog", "--members=1e6"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_EQ(flags.i64("members"), 1000000);
}

TEST(flags, range_list_checks_every_element) {
  const auto declare = [](flag_set& f) {
    f.add_range("sessions", "2,8", "counts",
                {.lo = 2, .hi = 64, .integer = true, .list = true});
  };
  EXPECT_TRUE(parses(declare, "sessions", "2,8,64"));
  EXPECT_TRUE(parses(declare, "sessions", "16"));
  for (const char* v : {"2.5", "2,8x", "2,,8", "2,65", "1,8", ""}) {
    EXPECT_FALSE(parses(declare, "sessions", v)) << v;
  }

  flag_set flags;
  declare(flags);
  const char* argv[] = {"prog", "--sessions=64,2,1e1"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_EQ(flags.i64_list("sessions"),
            (std::vector<std::int64_t>{64, 2, 10}));
}

TEST(flags, range_default_outside_its_range_is_a_declaration_error) {
  flag_set flags;
  EXPECT_THROW(flags.add_range("sessions", "65", "count",
                               {.lo = 2, .hi = 64, .integer = true}),
               invariant_error);
  EXPECT_THROW(flags.add_range("sessions", "2.5", "count",
                               {.lo = 2, .hi = 64, .integer = true}),
               invariant_error);
  EXPECT_THROW(flags.add_range("sessions", "2,100", "counts",
                               {.lo = 2, .hi = 64, .integer = true,
                                .list = true}),
               invariant_error);
  EXPECT_THROW(flags.add_range("empty", "1", "", {.lo = 2, .hi = 1}),
               invariant_error);
}

TEST(flags, rejection_message_names_flag_value_and_valid_values) {
  flag_set flags;
  flags.add_range("sessions", "2,8", "counts",
                  {.lo = 2, .hi = 64, .integer = true, .list = true});
  const char* argv[] = {"prog", "--sessions=2.5"};
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.parse(2, argv));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("bad value for --sessions: '2.5' (expected an integer "
                     "in [2, 64], or a comma-separated list of them)"),
            std::string::npos)
      << err;
}

}  // namespace
}  // namespace mcc::util
