// Committed-findings baseline for pp_analyze.
//
// The baseline lets a new rule land with its pre-existing findings tracked
// instead of blocking: an entry accepts one finding by rule, file, and the
// *content* of the flagged line (leading/trailing whitespace trimmed), so
// entries survive unrelated line-number churn but expire when the flagged
// code itself changes.  Format, one entry per line, tab-separated:
//
//   <rule>\t<file>\t<trimmed source line>
//
// Lines starting with '#' and blank lines are ignored.  Only project-rule
// findings can be baselined: an entry naming a per-file rule
// (is_file_rule — wall-clock, randomness, ...) makes the whole baseline
// invalid, so those findings stay suppressible only by an allow comment
// at the site.  Matching consumes entries (an entry accepts at most one
// finding per run); entries that matched nothing are reported as stale so
// the file shrinks as findings are fixed.  New findings — anything not
// allow-annotated and not in the baseline — fail the run.
#pragma once

#include <string>
#include <vector>

#include "analyze/index.hpp"
#include "analyze/rules.hpp"

namespace pp::analyze {

struct BaselineEntry {
  std::string rule;
  std::string file;
  std::string line_text;
  bool consumed = false;
};

// Parse a baseline file.  Returns false, leaves `out` empty and says why in
// `error` when the path cannot be read or an entry names a per-file rule.
bool load_baseline(const std::string& path, std::vector<BaselineEntry>& out,
                   std::string& error);

// Trimmed content of the finding's source line, as used for matching and
// for --update-baseline output.
std::string finding_line_text(const ProjectIndex& idx, const Finding& v);

// Partition `findings` against the baseline: matched findings are removed,
// consuming their entry.  Returns the stale (unconsumed) entries.
std::vector<BaselineEntry> apply_baseline(const ProjectIndex& idx,
                                          std::vector<BaselineEntry>& baseline,
                                          std::vector<Finding>& findings);

// Serialize findings as baseline entries (sorted, deduplicated input
// expected).
std::string render_baseline(const ProjectIndex& idx,
                            const std::vector<Finding>& findings);

}  // namespace pp::analyze
