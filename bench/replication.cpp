// Robustness check: the headline Figure-4 numbers replicated across eight
// seeds (1000-1007), with 95% confidence intervals.  The paper's orderings
// should hold not just for one lucky seed; the exit status is non-zero
// when either ordering fails, so the replication_smoke test can fail.
//
// Every (cell, seed) pair is one sweep item, so the 32 runs share the
// work-stealing pool and the result cache with every other battery: a warm
// re-run resolves them all from the cache.
#include <cstdio>
#include <string>

#include "bench/battery.hpp"
#include "exp/builder.hpp"
#include "exp/replicate.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  struct Cell {
    const char* pattern;
    std::vector<int> roles;
    exp::IntervalPolicy policy;
    const char* interval;
  };
  const std::vector<Cell> cells{
      {"56K", std::vector<int>(10, 0), exp::IntervalPolicy::Fixed500, "500ms"},
      {"56K", std::vector<int>(10, 0), exp::IntervalPolicy::Fixed100, "100ms"},
      {"512K", std::vector<int>(10, 3), exp::IntervalPolicy::Fixed500, "500ms"},
      {"512K", std::vector<int>(10, 3), exp::IntervalPolicy::Variable, "var"},
  };

  constexpr int kSeeds = 8;
  constexpr std::uint64_t kBaseSeed = 1000;
  std::vector<exp::sweep::Item> items;
  for (const auto& cell : cells) {
    for (int r = 0; r < kSeeds; ++r) {
      const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(r);
      items.push_back({std::string(cell.pattern) + "/" + cell.interval +
                           "/seed" + std::to_string(seed),
                       exp::ScenarioBuilder{}
                           .roles(cell.roles)
                           .policy(cell.policy)
                           .duration_s(140.0)
                           .seed(seed)
                           .build()});
    }
  }
  const auto sweep = bench::run_battery(items, opts);

  bench::Report rep{"Replication: Figure-4 cells across 8 seeds"};
  auto& sec = rep.section();
  std::vector<exp::ReplicateStats> stats;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& cell = cells[c];
    std::vector<double> saved;
    for (int r = 0; r < kSeeds; ++r) {
      const auto& o = sweep.outcomes[c * kSeeds + static_cast<std::size_t>(r)];
      saved.push_back(exp::summarize_all(o.record.clients).avg);
    }
    const auto s = exp::summarize_samples(saved);
    stats.push_back(s);
    sec.row()
        .cell("pattern", cell.pattern)
        .cell("interval", cell.interval)
        .cell("mean%", s.mean, 2)
        .cell("ci95", s.ci95(), 2)
        .cell("stddev", s.stddev, 2)
        .cell("min%", s.min, 2)
        .cell("max%", s.max, 2);
  }

  // The orderings must be statistically solid, not within-CI ties.
  const bool interval_ordering =
      stats[0].mean - stats[0].ci95() > stats[1].mean + stats[1].ci95();
  const bool variable_between = stats[3].mean < stats[2].mean + stats[2].ci95();
  rep.note(std::string("500ms > 100ms beyond CIs: ") +
           (interval_ordering ? "yes" : "NO"));
  rep.note(std::string("variable <= 500ms (512K): ") +
           (variable_between ? "yes" : "NO"));
  bench::emit(rep, opts);
  if (!interval_ordering || !variable_between) {
    std::fprintf(stderr, "replication: a paper ordering failed (see notes)\n");
    return 1;
  }
  return 0;
}
