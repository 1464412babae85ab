// Host-side measurement helpers for perfbench: wall and CPU clocks, RSS
// probes, order statistics, and the in-memory span log of the traced run.
//
// Wall-clock use is confined to this benchmark harness; the simulator
// itself only ever reads simulated time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock, seconds since an arbitrary epoch.
double wall_s();
// CPU time consumed by the whole process, seconds.
double cpu_s();

// Resident set size now, and its high-water mark, in bytes (Linux
// /proc/self/status VmRSS / VmHWM; 0 when unavailable).
std::uint64_t rss_bytes();
std::uint64_t peak_rss_bytes();

double median(std::vector<double> v);

// Wall seconds of a fixed host-speed probe (the median of five short
// passes of a miniature event loop that shares no code with the
// simulator; see kNominalProbeS in main.cpp for how it is used).
double reference_probe_s();

// One timed call into the program.  `parent` indexes the enclosing span in
// the same log (-1 for a root); `op` identifies the operation (scenario or
// fleet run) the span belongs to, `batch` the batch it ran in.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int op = -1;
  int batch = -1;
};

// Spans are kept in memory while the benchmark runs and written out once,
// at exit, so tracing adds no I/O to the timed phases.
class SpanLog {
 public:
  // Opens a span and returns its index; close it with end().
  int begin(const std::string& name, int parent, int op, int batch);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  // Sum of the durations of every span named `name` in `batch`.
  double total(const std::string& name, int batch) const;
  // Writes one JSON object per line; returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Times one call: the elapsed wall seconds are added to `acc`, and when a
// span log is attached the call is also recorded as a span.
class Timed {
 public:
  Timed(double& acc, SpanLog* log, const char* name, int parent, int op,
        int batch)
      : acc_{acc}, log_{log}, t0_{wall_s()} {
    if (log_) index_ = log_->begin(name, parent, op, batch);
  }
  ~Timed() {
    acc_ += wall_s() - t0_;
    if (log_) log_->end(index_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  double& acc_;
  SpanLog* log_;
  double t0_;
  int index_ = -1;
};

}  // namespace perfbench
