// perfbench workloads: closed batches of scenario runs (or one fleet run)
// derived from a single workload seed, and the code that runs one
// operation through the program's public entry points while timing it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/multicell.hpp"
#include "exp/scenario.hpp"
#include "measure.hpp"

namespace perfbench {

enum class Size { Full, Tiny };

// Deterministic counts and outcome sums of one batch, keyed by metric
// name.  Every entry is a pure function of the workload seed, so two
// batches of one seed, traced or not, must produce an identical Tally.
using Tally = std::map<std::string, double>;

// Host-time totals of one batch, seconds.
struct Phases {
  double setup_s = 0;     // scenario / fleet construction
  double run_s = 0;       // advance + postmortem replay (+ multicell run)
  double run_cpu_s = 0;   // process CPU time over the run phase
  double teardown_s = 0;  // finish() + destruction
};

struct Op {
  std::string name;
  std::uint64_t seed = 0;  // derived from the workload seed
  // Exactly one of these is set.  A scenario config is built (and
  // validated) when the operation runs, so an invalid builder config is a
  // failed operation, not a crash.
  std::function<pp::exp::ScenarioConfig()> scenario;
  std::function<pp::exp::MultiCellConfig()> fleet;
  bool postmortem = false;  // replay the kept trace for every client
};

struct Workload {
  std::string name;
  std::vector<Op> ops;
  int designated = 0;  // op whose replay digest is checked by a re-run
  int max_clients_alive = 0;
};

// Throws std::invalid_argument for an unknown workload name.
// `inject_invalid` appends an operation with an invalid builder config
// (the benchmark's own test of its correctness gate).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       Size size, bool inject_invalid);

// Runs one operation: adds host times to `ph` and counts to `tally`, and
// sets `digest` to the run's replay digest.  Spans are recorded when `log`
// is non-null.  Returns false, after saying why on stderr, when the
// operation threw (an invalid config or a tripped PP_CHECK) or its outputs
// failed the plausibility gate.
bool run_op(const Op& op, int op_index, int batch, Phases& ph, Tally& tally,
            std::uint64_t& digest, SpanLog* log);

}  // namespace perfbench
