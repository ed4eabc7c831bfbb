// Ablation (section 4.2): key-guessing attack success probability.
//
// A receiver ineligible for a group can flood the edge router with random
// keys; with b-bit keys and y submissions per slot, the success probability
// is y / 2^b. We Monte-Carlo the actual tuple validation against the
// analytic value for several key widths and submission budgets; each
// (bits, budget) cell is one sweep grid point with its own PRNG stream.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/sigma_wire.h"
#include "crypto/prng.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "util/flags.h"

using namespace mcc;

int main(int argc, char** argv) {
  util::flag_set flags("Key-guessing ablation: success probability vs key width");
  flags.add("trials", "200000", "Monte Carlo trials per configuration");
  flags.add("seed", "31", "rng seed");
  exp::add_sweep_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const auto trials = static_cast<int>(flags.i64("trials"));
  const auto opts = exp::sweep_options_from_flags(
      flags, static_cast<std::uint64_t>(flags.i64("seed")));

  struct cell {
    int bits;
    int y;
  };
  std::vector<cell> cells;
  std::vector<double> xs;
  for (const int bits : {8, 12, 16}) {
    for (const int y : {1, 16, 256}) {
      cells.push_back(cell{bits, y});
      xs.push_back(bits);  // display coordinate: key width
    }
  }

  const auto rows = exp::run_sweep(
      xs, opts, [&](const exp::sweep_point& pt) {
        const auto [bits, y] = cells[pt.index];
        crypto::prng rng(pt.seed);
        int hits = 0;
        for (int t = 0; t < trials; ++t) {
          core::key_tuple tuple;
          tuple.top = crypto::mask_to_bits(crypto::group_key{rng.next()}, bits);
          tuple.dec = crypto::mask_to_bits(crypto::group_key{rng.next()}, bits);
          tuple.inc = crypto::mask_to_bits(crypto::group_key{rng.next()}, bits);
          bool hit = false;
          for (int g = 0; g < y && !hit; ++g) {
            hit = tuple.matches(
                crypto::mask_to_bits(crypto::group_key{rng.next()}, bits));
          }
          if (hit) ++hits;
        }
        // Three valid keys per tuple: success per guess is ~3/2^b.
        exp::sweep_row row;
        row.label = "b" + std::to_string(bits) + "_y" + std::to_string(y);
        row.value("bits", bits);
        row.value("guesses_per_slot", y);
        row.value("analytic",
                  1.0 - std::pow(1.0 - 3.0 / std::pow(2.0, bits), y));
        row.value("measured", static_cast<double>(hits) / trials);
        return row;
      });

  std::puts("# guessing-attack success probability");
  std::puts("# bits  guesses_per_slot  analytic  measured");
  for (const auto& row : rows) {
    std::printf("%d %d %.6f %.6f\n", static_cast<int>(row.value_of("bits")),
                static_cast<int>(row.value_of("guesses_per_slot")),
                row.value_of("analytic"), row.value_of("measured"));
  }
  exp::print_check(std::cout, "16-bit keys, 256 guesses/slot",
                   "~1.2% success/slot (paper: y/2^b)",
                   100.0 * (1.0 - std::pow(1.0 - 3.0 / 65536.0, 256)), "%");
  exp::maybe_write_json(flags, "ablation_key_guessing", rows, opts);
  exp::maybe_write_trace(flags, rows);
  return 0;
}
