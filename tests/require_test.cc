// util::require's failure behaviour: the exception type and the exact
// message text, for literal and run-time-built messages, with and without
// context.
#include "util/require.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace mcc::util {
namespace {

/// The message a failing call throws; empty if it does not throw.
template <typename Check>
std::string thrown_message(Check check) {
  try {
    check();
  } catch (const invariant_error& e) {
    return e.what();
  }
  return {};
}

TEST(require, passing_check_does_not_throw) {
  EXPECT_NO_THROW(require(true, "never thrown"));
  EXPECT_NO_THROW(require(true, "never thrown", 42));
}

TEST(require, failure_throws_invariant_error) {
  EXPECT_THROW(require(false, "broken"), invariant_error);
  EXPECT_THROW(require(false, "broken", 1), invariant_error);
  // invariant_error stays a std::logic_error for callers that catch that.
  EXPECT_THROW(require(false, "broken"), std::logic_error);
}

TEST(require, plain_message_is_the_literal) {
  EXPECT_EQ(thrown_message([] {
              require(false, "scheduler: event scheduled in the past");
            }),
            "scheduler: event scheduled in the past");
}

TEST(require, context_is_appended_in_parentheses) {
  EXPECT_EQ(thrown_message([] { require(false, "undeclared flag", "seed"); }),
            "undeclared flag (seed)");
  EXPECT_EQ(thrown_message([] { require(false, "bad level", 17); }),
            "bad level (17)");
  EXPECT_EQ(thrown_message([] { require(false, "ratio", 0.5); }),
            "ratio (0.5)");
  EXPECT_EQ(thrown_message([] {
              require(false, "name", std::string("r1"));
            }),
            "name (r1)");
}

TEST(require, run_time_string_messages_compile_and_throw) {
  const std::string node = "router-7";
  EXPECT_EQ(thrown_message([&] { require(false, "unknown node " + node); }),
            "unknown node router-7");
  EXPECT_EQ(thrown_message([&] {
              require(false, std::string("bad link ") + node, 3);
            }),
            "bad link router-7 (3)");
  const std::string_view view = "a view";
  EXPECT_EQ(thrown_message([&] { require(false, view); }), "a view");
}

}  // namespace
}  // namespace mcc::util
