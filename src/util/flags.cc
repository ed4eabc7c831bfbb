#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "util/require.h"

namespace mcc::util {

std::vector<std::string> split_csv(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    out.push_back(
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

namespace {

/// Whole-string integer parse; nullopt on any trailing garbage.
std::optional<std::int64_t> parse_i64(const std::string& s) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(s, &used);
    if (used != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> parse_f64(const std::string& s) {
  // std::stod accepts "nan", "inf", and hexfloats ("0x12"); none of them is
  // a sane simulation parameter, so reject them up front.
  if (s.find_first_of("xX") != std::string::npos) return std::nullopt;
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// i64()'s spelling rule: a whole-string integer, or an integral number in
/// int64 range ("1e6", "250.0"); nullopt for "2.5" or garbage.
std::optional<std::int64_t> parse_integer(const std::string& s) {
  if (const auto v = parse_i64(s)) return v;
  const auto real = parse_f64(s);
  if (!real.has_value() || *real != std::trunc(*real) || *real < -9.2e18 ||
      *real > 9.2e18) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(*real);
}

bool number_ok(const range& r, const std::string& s) {
  const auto v = parse_f64(s);
  if (!v.has_value() || (r.integer && !parse_integer(s).has_value())) {
    return false;
  }
  return *v >= r.lo && *v <= r.hi;
}

std::string join_allowed(const std::vector<std::string>& allowed) {
  std::string out;
  for (const std::string& a : allowed) {
    if (!out.empty()) out += ", ";
    out += a.empty() ? "''" : a;
  }
  return out;
}

/// Powers of two from 2^10 up print as such ("[1, 2^20]"), the rest as %g.
std::string bound_text(double v) {
  int exponent = 0;
  if (v >= 1024.0 && std::frexp(v, &exponent) == 0.5) {
    return "2^" + std::to_string(exponent - 1);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string range_text(const range& r) {
  std::string out = r.integer ? "an integer" : "a number";
  const bool open_zero = r.lo == above_zero;
  if (std::isfinite(r.lo) && std::isfinite(r.hi)) {
    out += " in " + (open_zero ? std::string("(0") : "[" + bound_text(r.lo)) +
           ", " + bound_text(r.hi) + "]";
  } else if (std::isfinite(r.lo)) {
    out += open_zero ? " > 0" : " >= " + bound_text(r.lo);
  } else if (std::isfinite(r.hi)) {
    out += " <= " + bound_text(r.hi);
  }
  return out;
}

}  // namespace

flag_set::flag_set(std::string program_description)
    : description_(std::move(program_description)) {}

bool flag_set::value_ok(const entry& e, const std::string& value) {
  const bool list = e.k == kind::numeric ? e.valid.list : e.csv_list;
  const std::vector<std::string> parts =
      list ? split_csv(value) : std::vector<std::string>{value};
  for (const std::string& part : parts) {
    if (e.k == kind::numeric && !number_ok(e.valid, part)) return false;
    if (e.k == kind::enumerated &&
        (std::ranges::find(e.allowed, part) == e.allowed.end() ||
         (parts.size() > 1 && part == "all"))) {
      return false;
    }
  }
  return true;
}

std::string flag_set::expected(const entry& e) {
  const bool list = e.k == kind::numeric ? e.valid.list : e.csv_list;
  return (e.k == kind::numeric ? range_text(e.valid)
                               : "one of " + join_allowed(e.allowed)) +
         (list ? ", or a comma-separated list of them" : "");
}

void flag_set::declare(const std::string& name, entry e) {
  require(!entries_.contains(name), "duplicate flag", name);
  require(value_ok(e, e.default_value), "flag default fails its declaration",
          name);
  entries_[name] = std::move(e);
}

void flag_set::add(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  // An integer-looking default still marks the flag merely numeric: many
  // benches declare "--duration 120" but read it with f64(), so "12.5" must
  // stay a valid value.
  declare(name, {default_value, default_value, help,
                 parse_f64(default_value).has_value() ? kind::numeric
                                                      : kind::other});
}

void flag_set::add_range(const std::string& name,
                         const std::string& default_value,
                         const std::string& help, range valid) {
  require(valid.lo <= valid.hi, "add_range: empty range", name);
  declare(name, {default_value, default_value, help, kind::numeric, valid});
}

void flag_set::add_enum(const std::string& name,
                        const std::string& default_value,
                        const std::string& help,
                        std::vector<std::string> allowed, bool csv_list) {
  require(!allowed.empty(), "add_enum: empty allowed set", name);
  declare(name, {default_value, default_value, help, kind::enumerated, {},
                 std::move(allowed), csv_list});
}

bool flag_set::set_value(const std::string& name, const std::string& value) {
  auto it = entries_.find(name);
  require(it != entries_.end(), "set_value: undeclared flag", name);
  entry& e = it->second;
  if (!value_ok(e, value)) {
    std::fprintf(stderr, "bad value for --%s: '%s' (expected %s)\n",
                 name.c_str(), value.c_str(), expected(e).c_str());
    return false;
  }
  e.value = value;  // repeated flags are last-wins
  return true;
}

bool flag_set::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (!entries_.contains(name)) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      print_usage();
      return false;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
      print_usage();
      return false;
    }
    if (!set_value(name, value)) {
      print_usage();
      return false;
    }
  }
  return true;
}

std::string flag_set::str(const std::string& name) const {
  auto it = entries_.find(name);
  require(it != entries_.end(), "undeclared flag", name);
  return it->second.value;
}

std::int64_t flag_set::i64(const std::string& name) const {
  const std::string v = str(name);
  const auto parsed = parse_integer(v);
  require(parsed.has_value(),
          "bad value for --" + name + " (expected an integer)", v);
  return *parsed;
}

std::vector<std::int64_t> flag_set::i64_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const std::string& v : split_csv(str(name))) {
    const auto parsed = parse_integer(v);
    require(parsed.has_value(),
            "bad value for --" + name + " (expected integers)", v);
    out.push_back(*parsed);
  }
  return out;
}

double flag_set::f64(const std::string& name) const {
  const std::string v = str(name);
  const auto parsed = parse_f64(v);
  require(parsed.has_value(), "bad value for --" + name, v);
  return *parsed;
}

bool flag_set::boolean(const std::string& name) const {
  auto v = str(name);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

void flag_set::print_usage() const {
  if (!description_.empty()) std::fprintf(stderr, "%s\n", description_.c_str());
  std::fprintf(stderr, "flags:\n");
  for (const auto& [name, e] : entries_) {
    const range& r = e.valid;
    const bool declared = e.k == kind::enumerated ||
                          (e.k == kind::numeric &&
                           (std::isfinite(r.lo) || std::isfinite(r.hi) ||
                            r.integer || r.list));
    std::fprintf(stderr, "  --%s (default: %s)  %s%s\n", name.c_str(),
                 e.default_value.c_str(), e.help.c_str(),
                 declared ? (" [" + expected(e) + "]").c_str() : "");
  }
}

}  // namespace mcc::util
