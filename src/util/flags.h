// Tiny command-line flag parser used by benches and examples.
//
// Flags are declared with a default and a help string, then parsed from
// `--name=value` or `--name value` arguments. `--help` prints usage.
// A flag's valid values live in its declaration and nowhere else: parse()
// rejects a bad value once, printing `bad value for --NAME: 'V' (expected
// ...)`, so bench mains read values back without re-checking them.
//   add()        the default doubles as a type hint: a numeric default makes
//                the flag numeric (any finite number parses), anything else
//                is a free-form string
//   add_range()  a number, or integer, in a closed range; optionally a comma
//                list of them
//   add_enum()   one of a list of names; optionally a comma list of them
// Repeated flags are last-wins. Declare boolean flags with "true"/"false"
// defaults (not "0"/"1"), or the numeric validation will reject the word
// spellings boolean() accepts.
#ifndef MCC_UTIL_FLAGS_H
#define MCC_UTIL_FLAGS_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace mcc::util {

/// Splits a comma-separated flag value into its entries, in order. Empty
/// segments are preserved ("a,,b" -> {"a", "", "b"}; "" -> {""}) so callers
/// reject them instead of silently skipping a typo.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& spec);

/// The smallest positive double: as a range's `lo` it declares the open
/// bound (0, hi], and usage text prints it that way.
inline constexpr double above_zero = std::numeric_limits<double>::denorm_min();

/// Valid values of an add_range flag: numbers in the closed range [lo, hi]
/// (an infinite bound is no bound). `integer` admits only integral values in
/// int64 range, spelled as i64() accepts them ("8", "1e6", "250.0"); `list`
/// makes the value a comma list whose every element is checked.
struct range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool integer = false;
  bool list = false;
};

/// Declarative set of command-line flags with typed accessors.
class flag_set {
 public:
  explicit flag_set(std::string program_description = "");

  /// Declares a flag; `default_value` doubles as the type hint for usage text
  /// and parse-time validation.
  void add(const std::string& name, const std::string& default_value,
           const std::string& help);

  /// Declares a numeric flag whose values must lie in `valid`. The default
  /// itself must validate.
  void add_range(const std::string& name, const std::string& default_value,
                 const std::string& help, range valid);

  /// Declares an enum-valued flag: only the listed values parse. With
  /// `csv_list` every comma-separated element of the value must be one of
  /// the allowed names ("--qdisc droptail,red"); empty elements are
  /// rejected, and an allowed name "all" (the whole-axis alias) is only
  /// valid on its own. The default itself must validate.
  void add_enum(const std::string& name, const std::string& default_value,
                const std::string& help, std::vector<std::string> allowed,
                bool csv_list = false);

  /// Parses argv. Returns false (after printing usage) on `--help`, on an
  /// unknown/malformed flag, or on a value its declaration rejects.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const {
    return entries_.contains(name);
  }
  [[nodiscard]] std::string str(const std::string& name) const;
  [[nodiscard]] std::int64_t i64(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  [[nodiscard]] bool boolean(const std::string& name) const;
  /// The elements of a comma-list value, each read as by i64().
  [[nodiscard]] std::vector<std::int64_t> i64_list(
      const std::string& name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  void print_usage() const;

 private:
  /// `numeric` flags (a numeric add() default, or add_range) must parse as
  /// numbers inside `valid`; integer-default add() flags are often read via
  /// f64(), so they stay merely numeric. `enumerated` flags (add_enum)
  /// accept only listed values; `other` flags are not validated.
  enum class kind { numeric, enumerated, other };

  struct entry {
    std::string value;
    std::string default_value;
    std::string help;
    kind k = kind::other;
    range valid{};                       // numeric only
    std::vector<std::string> allowed{};  // enumerated only
    bool csv_list = false;               // enumerated: value is a CSV
  };

  [[nodiscard]] static bool value_ok(const entry& e, const std::string& value);
  [[nodiscard]] static std::string expected(const entry& e);
  void declare(const std::string& name, entry e);
  bool set_value(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace mcc::util

#endif  // MCC_UTIL_FLAGS_H
