// Invariant checking helpers (always on, including release builds).
//
// The simulator is deterministic, so a violated invariant is a programming
// error that should surface immediately rather than corrupt an experiment.
//
// The checks sit on the per-event path (scheduling, link delivery, node
// lookup), so a passing check must cost a compare and nothing more: the
// message is taken as a string_view and turned into a std::string only on
// the throw path.
#ifndef MCC_UTIL_REQUIRE_H
#define MCC_UTIL_REQUIRE_H

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mcc::util {

/// Thrown when a checked invariant fails.
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void fail(std::string_view what) {
  throw invariant_error(std::string(what));
}

template <typename T>
[[noreturn, gnu::cold, gnu::noinline]] void fail(std::string_view what,
                                                 const T& context) {
  std::ostringstream os;
  os << what << " (" << context << ")";
  throw invariant_error(os.str());
}

}  // namespace detail

/// Checks a precondition/invariant; throws invariant_error on failure.
inline void require(bool condition, std::string_view what) {
  if (!condition) [[unlikely]] detail::fail(what);
}

/// require() with value context appended to the message.
template <typename T>
void require(bool condition, std::string_view what, const T& context) {
  if (!condition) [[unlikely]] detail::fail(what, context);
}

}  // namespace mcc::util

#endif  // MCC_UTIL_REQUIRE_H
