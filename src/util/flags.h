// Tiny command-line flag parser used by benches and examples.
//
// Flags are declared with a default and a help string, then parsed from
// `--name=value` or `--name value` arguments. `--help` prints usage.
// The default value doubles as a type hint: flags whose default parses as an
// integer or a float are validated at parse time, so a bad `--duration=abc`
// fails the parse with a friendly message instead of throwing out of an
// accessor later. Repeated flags are last-wins. Declare boolean flags with
// "true"/"false" defaults (not "0"/"1"), or the numeric validation will
// reject the word spellings boolean() accepts.
#ifndef MCC_UTIL_FLAGS_H
#define MCC_UTIL_FLAGS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mcc::util {

/// Splits a comma-separated flag value into its entries, in order. Empty
/// segments are preserved ("a,,b" -> {"a", "", "b"}; "" -> {""}) so callers
/// reject them with their own friendly message instead of silently skipping
/// a typo.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& spec);

/// Declarative set of command-line flags with typed accessors.
class flag_set {
 public:
  explicit flag_set(std::string program_description = "");

  /// Declares a flag; `default_value` doubles as the type hint for usage text
  /// and parse-time validation.
  void add(const std::string& name, const std::string& default_value,
           const std::string& help);

  /// Declares an enum-valued flag: only the listed values parse, anything
  /// else fails with "bad value for --name: 'v' (expected one of ...)".
  /// With `csv_list` every comma-separated element of the value must be one
  /// of the allowed names ("--qdisc droptail,red"); empty elements are
  /// rejected. The default itself must validate.
  void add_enum(const std::string& name, const std::string& default_value,
                const std::string& help, std::vector<std::string> allowed,
                bool csv_list = false);

  /// Parses argv. Returns false (after printing usage) on `--help`, on an
  /// unknown/malformed flag, or on a value that fails the flag's type check.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string str(const std::string& name) const;
  [[nodiscard]] std::int64_t i64(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  [[nodiscard]] bool boolean(const std::string& name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  void print_usage() const;

 private:
  /// Type inferred from the declared default; `other` flags (strings, bools)
  /// are not validated at parse time. A numeric default (integer or float —
  /// integer-default flags are often read via f64()) requires numeric values.
  /// `enumerated` flags (declared with add_enum) accept only listed values.
  enum class kind { numeric, enumerated, other };

  struct entry {
    std::string value;
    std::string default_value;
    std::string help;
    kind k = kind::other;
    std::vector<std::string> allowed{};  // enumerated only
    bool csv_list = false;  // enumerated: value is a CSV of allowed
  };

  bool set_value(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace mcc::util

#endif  // MCC_UTIL_FLAGS_H
