#include "measure.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

// Reads a "<key>:   <n> kB" line from /proc/self/status.
std::uint64_t status_kb(const std::string& key) {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream fields{line.substr(key.size() + 1)};
    std::uint64_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

}  // namespace

std::uint64_t rss_bytes() { return status_kb("VmRSS") * 1024; }
std::uint64_t peak_rss_bytes() { return status_kb("VmHWM") * 1024; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

double probe_pass() {
  // A miniature discrete-event loop with the simulator's memory habits
  // (a time-ordered heap, scattered per-entity state, small heap blocks,
  // an ordered map) but none of its code: 64K entities of 64 B (4 MiB),
  // each event touching one entity and scheduling its successor.
  struct Entity {
    std::uint64_t state[8];
  };
  constexpr std::uint32_t kEntities = 1u << 16;
  static std::vector<Entity> entities(kEntities);
  struct Event {
    std::uint64_t at;
    std::uint32_t who;
    bool operator<(const Event& o) const { return at > o.at; }
  };
  const double t0 = wall_s();
  std::priority_queue<Event> heap;
  std::map<std::uint64_t, std::uint32_t> index;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i)
    heap.push(Event{next() % 1000000, static_cast<std::uint32_t>(next() % kEntities)});
  std::uint64_t sink = 0;
  for (int step = 0; step < 60000; ++step) {
    const Event ev = heap.top();
    heap.pop();
    Entity& e = entities[ev.who];
    for (std::uint64_t& v : e.state) v = v * 31 + ev.at;
    sink += e.state[ev.at & 7];
    if ((step & 7) == 0) {
      auto block = std::make_unique<std::uint64_t[]>(8 + (ev.at & 15));
      block[0] = ev.at;
      sink += block[0];
      index[ev.at ^ next()] = ev.who;
      if (index.size() > 2048) index.erase(index.begin());
    }
    heap.push(Event{ev.at + 1 + next() % 5000, static_cast<std::uint32_t>(next() % kEntities)});
  }
  const double t = wall_s() - t0;
  // Keep the work observable so it is not optimised away.
  if (sink == 42) std::fprintf(stderr, "\n");
  return t;
}

}  // namespace

double reference_probe_s() {
  // The median of five short passes: one pass is ~10 ms, short enough to
  // land on a momentary spike of the host's load; the median does not.
  std::vector<double> passes;
  for (int i = 0; i < 5; ++i) passes.push_back(probe_pass());
  return median(passes);
}

int SpanLog::begin(const std::string& name, int parent, int op, int batch) {
  spans_.push_back(Span{name, wall_s(), 0, parent, op, batch});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = wall_s();
}

double SpanLog::total(const std::string& name, int batch) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (s.batch == batch && s.name == name) sum += s.end_s - s.start_s;
  return sum;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out.precision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"batch\":" << s.batch << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
