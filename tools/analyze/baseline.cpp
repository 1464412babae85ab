#include "analyze/baseline.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

namespace pp::analyze {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

bool load_baseline(const std::string& path, std::vector<BaselineEntry>& out,
                   std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read baseline " + path;
    return false;
  }
  std::vector<BaselineEntry> entries;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t t1 = line.find('\t');
    if (t1 == std::string::npos) continue;
    const std::size_t t2 = line.find('\t', t1 + 1);
    if (t2 == std::string::npos) continue;
    BaselineEntry e;
    e.rule = line.substr(0, t1);
    e.file = line.substr(t1 + 1, t2 - t1 - 1);
    e.line_text = line.substr(t2 + 1);
    if (is_file_rule(e.rule)) {
      error = path + ":" + std::to_string(line_no) + ": per-file rule '" +
              e.rule +
              "' cannot be baselined; suppress it with an allow comment "
              "at the site";
      return false;
    }
    entries.push_back(std::move(e));
  }
  out = std::move(entries);
  return true;
}

std::string finding_line_text(const ProjectIndex& idx, const Finding& v) {
  const int fi = idx.find(v.file);
  if (fi < 0) return {};
  const auto& lines = idx.files()[static_cast<std::size_t>(fi)].raw_lines;
  if (v.line < 1 || v.line > static_cast<int>(lines.size())) return {};
  return trim(lines[static_cast<std::size_t>(v.line - 1)]);
}

std::vector<BaselineEntry> apply_baseline(
    const ProjectIndex& idx, std::vector<BaselineEntry>& baseline,
    std::vector<Finding>& findings) {
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& v : findings) {
    const std::string text = finding_line_text(idx, v);
    bool matched = false;
    for (BaselineEntry& e : baseline) {
      if (e.consumed || e.rule != v.rule || e.file != v.file ||
          e.line_text != text) {
        continue;
      }
      e.consumed = true;
      matched = true;
      break;
    }
    if (!matched) kept.push_back(std::move(v));
  }
  findings = std::move(kept);

  std::vector<BaselineEntry> stale;
  for (const BaselineEntry& e : baseline) {
    if (!e.consumed) stale.push_back(e);
  }
  return stale;
}

std::string render_baseline(const ProjectIndex& idx,
                            const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "# pp_analyze baseline: accepted pre-existing findings.\n"
     << "# <rule>\\t<file>\\t<trimmed source line>; regenerate with\n"
     << "#   pp_analyze --root . --update-baseline "
        "tools/analyze/baseline.txt\n";
  for (const Finding& v : findings) {
    os << v.rule << '\t' << v.file << '\t' << finding_line_text(idx, v)
       << '\n';
  }
  return os.str();
}

}  // namespace pp::analyze
