// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <paper_battery|hostile_mix|fleet_idle> --seed N
//             --seconds S --trace <0|1> [--size tiny] [--inject-invalid]
//             [--spans-out FILE] [--list-ops]
//
// A workload is a closed batch of operations (scenario runs, or one fleet
// run) derived from the seed.  The batch is run back to back, serially on
// one thread, until S seconds have passed (at least twice), and every
// timing is reported as the median over batches, scaled to a nominal host
// speed (see kNominalProbeS).  Repeating one batch is also the determinism
// check: every batch of a seed must produce identical simulated outcomes
// and layer counts.  Per-batch raw times go to stderr.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
// and traced batches, prints the per-layer metrics read from the traced
// batches (registries, results and spans), the tracing overhead, and
// writes the spans to --spans-out at exit.  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "exp/digest.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"teardown_s", "s"},
    {"sim_client_s_per_cpu_s", "client-s/cpu-s"},
    {"peak_rss_mb", "MiB"},
    {"rss_bytes_per_client", "B/client"},
    {"energy_saved_pct", "%"},
    {"client_loss_pct", "%"},
    {"udp_delay_ms", "ms"},
    {"web_page_ms", "ms"},
    {"ok_ops_pct", "%"},
};

const MetricDef kPerLayer[] = {
    // exp
    {"exp.build_s", "s"},
    {"exp.build_us_per_client", "us/client"},
    {"exp.finish_s", "s"},
    {"exp.teardown_s", "s"},
    {"exp.multicell.epochs", "count"},
    {"exp.multicell.backbone_msgs", "count"},
    {"exp.multicell.run_us_per_epoch", "us/epoch"},
    // sim
    {"sim.advance_s", "s"},
    {"sim.host_ns_per_event", "ns/event"},
    {"sim.events.scheduled", "count"},
    {"sim.events.fired", "count"},
    {"sim.events.cancelled", "count"},
    {"sim.events.stale_pruned", "count"},
    {"sim.events_per_sim_client_s", "1/client-s"},
    {"sim.cancelled_per_scheduled", "ratio"},
    {"sim.stale_pruned_per_fired", "ratio"},
    {"sim.alloc.callbacks_pooled", "count"},
    {"sim.alloc.pool_allocs", "count"},
    // net
    {"net.frames_sent", "count"},
    {"net.bursts", "count"},
    {"net.burst_frames_per_burst", "frames/burst"},
    {"net.frames_per_event", "ratio"},
    {"net.frames_missed_pct", "%"},
    {"net.ap.downlink_dropped_pct", "%"},
    // proxy
    {"proxy.schedules_sent", "count"},
    {"proxy.queued_packets", "count"},
    {"proxy.burst_bytes_per_burst", "B/burst"},
    {"proxy.empty_burst_markers_per_schedule", "ratio"},
    {"proxy.queue_drops_pct", "%"},
    {"proxy.churn.joins", "count"},
    {"proxy.churn.renegotiations", "count"},
    {"proxy.churn.dropped_bytes", "B"},
    // client
    {"client.schedules_received", "count"},
    {"client.schedules_missed_pct", "%"},
    {"client.resyncs", "count"},
    {"client.escalated_sleeps", "count"},
    {"client.coast_breaks", "count"},
    {"client.assoc_retries", "count"},
    {"client.sleeps_per_schedule", "ratio"},
    // energy
    {"energy.ledger_rows", "count"},
    {"energy.saved_pct_worst_client", "%"},
    // transport
    {"tcp.retransmissions", "count"},
    {"tcp.fast_retransmits", "count"},
    {"tcp.timeouts", "count"},
    {"transport.retx_per_app_mb", "1/MB"},
    // trace
    {"trace.records", "count"},
    {"trace.postmortem_s", "s"},
    {"trace.postmortem_ns_per_record", "ns/record"},
    {"trace.postmortem_minus_live_saved_pct", "%"},
    // channel / fault
    {"channel.state.attempts", "count"},
    {"channel.state.losses", "count"},
    {"fault.windows_activated", "count"},
    {"fault.ge_losses", "count"},
    {"fault.fade_losses", "count"},
    // obs
    {"obs.timeline_events", "count"},
    {"obs.metric_series", "count"},
    // check
    {"check.audits_run", "count"},
    {"check.violations", "count"},
    // workload
    {"workload.pages_completed", "count"},
    {"workload.video_downshifts", "count"},
    // the benchmark itself: traced minus untraced run phase
    {"bench.trace_overhead_run_s", "s"},
    // host-speed probe time next to the traced batches (see kNominalProbeS)
    {"bench.host_probe_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::Full;
  bool inject_invalid = false;
  std::string spans_out;
  bool list_ops = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size tiny] [--inject-invalid] "
               "[--spans-out FILE] [--list-ops]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(value().c_str());
    else if (arg == "--trace") a.trace = value() == "1";
    else if (arg == "--size") {
      const std::string s = value();
      if (s == "tiny") a.size = Size::Tiny;
      else if (s != "full") usage("--size must be full or tiny");
    } else if (arg == "--inject-invalid") a.inject_invalid = true;
    else if (arg == "--spans-out") a.spans_out = value();
    else if (arg == "--list-ops") a.list_ops = true;
    else usage(("unknown argument " + arg).c_str());
  }
  if (!(a.seconds >= 0)) usage("--seconds must be non-negative");
  return a;
}

// Host-speed normalisation.  The host this benchmark runs on is shared:
// the speed of one core drifts by up to 2x over seconds to minutes as
// neighbours load it, and raw wall time drifts with it.  A fixed probe
// (measure.hpp) runs before the first operation and then between
// operations about every kProbeEveryS of work, and at the end of every
// batch.  The times of the operations between two probes are scaled by
// kNominalProbeS over the mean of those two probes, so end-to-end timings
// read as seconds on a host that runs the probe in kNominalProbeS.  The
// probe shares no code with the simulator, so a change to the program
// moves the scaled times as it moves raw ones.  Raw medians are printed
// alongside.
constexpr double kNominalProbeS = 0.010;
constexpr double kProbeEveryS = 0.5;

void add_scaled(Phases& into, const Phases& seg, double k) {
  into.setup_s += k * seg.setup_s;
  into.run_s += k * seg.run_s;
  into.run_cpu_s += k * seg.run_cpu_s;
  into.teardown_s += k * seg.teardown_s;
}

struct Batch {
  bool traced = false;
  Phases raw;
  Phases scaled;
  double probe_s = 0;  // mean probe time over the batch's segments
  Tally tally;
  std::uint64_t digest = 0;
  int ok = 0;
  int failed = 0;
};

double get(const Tally& t, const std::string& k) {
  const auto it = t.find(k);
  return it == t.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.workload.empty()) usage("--workload is required");

  // An invariant trip becomes a failed operation, not an abort.
  pp::check::set_failure_handler(pp::check::throwing_handler);

  Workload w;
  try {
    w = make_workload(args.workload, args.seed, args.size, args.inject_invalid);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  if (args.list_ops) {
    for (const Op& op : w.ops)
      std::printf("%s seed=%llu\n", op.name.c_str(),
                  static_cast<unsigned long long>(op.seed));
    return 0;
  }

  double probe_before = reference_probe_s();  // also allocates its state
  const std::uint64_t rss_baseline = rss_bytes();
  SpanLog log;
  std::vector<Batch> batches;
  const double t_start = wall_s();
  // At least two batches: the second is the re-run the determinism gate
  // compares against.  Traced runs alternate untraced and traced batches
  // and need a third: the tracing overhead compares the traced batches
  // with the untraced ones after the first, which also pays the process's
  // first-touch page faults.
  const std::size_t min_batches = args.trace ? 3 : 2;
  while (batches.size() < min_batches || wall_s() - t_start < args.seconds) {
    Batch b;
    const int index = static_cast<int>(batches.size());
    b.traced = args.trace && index % 2 == 1;
    Phases seg;
    int segments = 0;
    double seg_start = wall_s();
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      std::uint64_t digest = 0;
      const bool ok = run_op(w.ops[i], static_cast<int>(i), index, seg,
                             b.tally, digest, b.traced ? &log : nullptr);
      (ok ? b.ok : b.failed) += 1;
      if (static_cast<int>(i) == w.designated) b.digest = digest;
      if (i + 1 < w.ops.size() && wall_s() - seg_start < kProbeEveryS) continue;
      const double probe_after = reference_probe_s();
      const double probe = 0.5 * (probe_before + probe_after);
      add_scaled(b.raw, seg, 1.0);
      add_scaled(b.scaled, seg, kNominalProbeS / probe);
      b.probe_s += probe;
      ++segments;
      probe_before = probe_after;
      seg = Phases{};
      seg_start = wall_s();
    }
    b.probe_s /= segments;
    std::fprintf(stderr,
                 "perfbench: batch %d%s probe_s=%.6f setup_s=%.6f run_s=%.6f "
                 "run_cpu_s=%.6f teardown_s=%.6f ok=%d failed=%d\n",
                 index, b.traced ? " (traced)" : "", b.probe_s, b.raw.setup_s,
                 b.raw.run_s, b.raw.run_cpu_s, b.raw.teardown_s, b.ok, b.failed);
    batches.push_back(std::move(b));
  }
  const double measured_s = wall_s() - t_start;
  const std::uint64_t peak_rss = peak_rss_bytes();

  // -- Correctness gate ------------------------------------------------------------
  bool correct = true;
  int attempted = 0, failed = 0;
  for (const Batch& b : batches) {
    attempted += b.ok + b.failed;
    failed += b.failed;
    if (b.tally != batches.front().tally) {
      correct = false;
      std::fprintf(stderr, "perfbench: batch outcomes differ between runs of "
                           "one seed (traced=%d)\n", b.traced ? 1 : 0);
    }
    if (b.digest != batches.front().digest) {
      correct = false;
      std::fprintf(stderr, "perfbench: replay digest differs between batches\n");
    }
  }
  // Scenario workloads: re-run the designated scenario on its own through
  // exp::run_digest; the fleet was re-run by the batches above.
  const Op& designated = w.ops[static_cast<std::size_t>(w.designated)];
  if (designated.scenario && correct) {
    ++attempted;
    const int span = args.trace ? log.begin("exp.digest", -1, w.designated, -1) : -1;
    std::uint64_t d = 0;
    try {
      d = pp::exp::run_digest(designated.scenario());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: digest re-run: %s\n", e.what());
    }
    if (span >= 0) log.end(span);
    if (d == 0 || d != batches.front().digest) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "perfbench: designated scenario %s: re-run digest "
                           "%016llx != batch digest %016llx\n",
                   designated.name.c_str(), static_cast<unsigned long long>(d),
                   static_cast<unsigned long long>(batches.front().digest));
    }
  }
  if (failed > 0) correct = false;

  const Tally& t = batches.front().tally;
  std::vector<std::pair<const MetricDef*, double>> out;
  auto find_def = [](const auto& table, const char* name) -> const MetricDef* {
    for (const auto& m : table)
      if (std::strcmp(m.name, name) == 0) return &m;
    return nullptr;
  };

  auto median_of = [&](bool traced, auto field) {
    std::vector<double> v;
    for (const Batch& b : batches)
      if (b.traced == traced) v.push_back(field(b));
    return median(v);
  };
  const auto scaled_run = [](const Batch& b) { return b.scaled.run_s; };
  const double run_untraced = median_of(false, scaled_run);

  if (!args.trace) {
    auto put = [&](const char* name, double v) {
      out.push_back({find_def(kEndToEnd, name), v});
    };
    put("setup_s", median_of(false, [](const Batch& b) { return b.scaled.setup_s; }));
    put("run_s", run_untraced);
    put("teardown_s",
        median_of(false, [](const Batch& b) { return b.scaled.teardown_s; }));
    put("sim_client_s_per_cpu_s", median_of(false, [](const Batch& b) {
          return ratio(get(b.tally, "sim.client_s"), b.scaled.run_cpu_s);
        }));
    put("peak_rss_mb", static_cast<double>(peak_rss) / (1024.0 * 1024.0));
    put("rss_bytes_per_client",
        ratio(static_cast<double>(peak_rss > rss_baseline ? peak_rss - rss_baseline : 0),
              static_cast<double>(w.max_clients_alive)));
    put("energy_saved_pct", ratio(get(t, "out.saved_sum"), get(t, "out.clients")));
    put("client_loss_pct",
        100.0 * ratio(get(t, "out.packets_missed"), get(t, "out.packets_addressed")));
    put("udp_delay_ms", ratio(get(t, "out.delay_wsum"), get(t, "out.delay_samples")));
    put("web_page_ms",
        ratio(get(t, "out.web_page_ms_sum"), get(t, "workload.pages_completed")));
    put("ok_ops_pct", 100.0 * ratio(attempted - failed, attempted));
  } else {
    auto put = [&](const char* name, double v) {
      out.push_back({find_def(kPerLayer, name), v});
    };
    auto span_s = [&](const char* name) {
      std::vector<double> v;
      for (std::size_t i = 0; i < batches.size(); ++i)
        if (batches[i].traced) v.push_back(log.total(name, static_cast<int>(i)));
      return median(v);
    };
    const double build_s = span_s("exp.build");
    const double multicell_s = span_s("exp.multicell.run");
    // On the fleet, advancing happens inside MultiCellTestbed::run.
    const double advance_s = span_s("sim.advance") + multicell_s;
    const double postmortem_s = span_s("trace.postmortem");
    const double fired = get(t, "sim.events.fired");
    const double epochs = get(t, "exp.multicell.epochs");
    const double frames = get(t, "net.frames_sent");
    put("exp.build_s", build_s);
    put("exp.build_us_per_client", 1e6 * ratio(build_s, get(t, "out.clients")));
    put("exp.finish_s", span_s("exp.finish"));
    put("exp.teardown_s", span_s("exp.teardown"));
    put("exp.multicell.epochs", epochs);
    put("exp.multicell.backbone_msgs", get(t, "exp.multicell.backbone_msgs"));
    put("exp.multicell.run_us_per_epoch", 1e6 * ratio(multicell_s, epochs));
    put("sim.advance_s", advance_s);
    put("sim.host_ns_per_event", 1e9 * ratio(advance_s, fired));
    for (const char* k : {"sim.events.scheduled", "sim.events.fired",
                          "sim.events.cancelled", "sim.events.stale_pruned"})
      put(k, get(t, k));
    put("sim.events_per_sim_client_s", ratio(fired, get(t, "sim.client_s")));
    put("sim.cancelled_per_scheduled",
        ratio(get(t, "sim.events.cancelled"), get(t, "sim.events.scheduled")));
    put("sim.stale_pruned_per_fired", ratio(get(t, "sim.events.stale_pruned"), fired));
    put("sim.alloc.callbacks_pooled", get(t, "sim.alloc.callbacks_pooled"));
    put("sim.alloc.pool_allocs", get(t, "sim.alloc.pool_allocs"));
    put("net.frames_sent", frames);
    put("net.bursts", get(t, "net.bursts"));
    put("net.burst_frames_per_burst",
        ratio(get(t, "net.burst_frames.sum"), get(t, "net.burst_frames.count")));
    put("net.frames_per_event", ratio(frames, fired));
    put("net.frames_missed_pct", 100.0 * ratio(get(t, "net.frames_missed"), frames));
    const double ap_dropped = get(t, "ap.downlink_dropped");
    put("net.ap.downlink_dropped_pct",
        100.0 * ratio(ap_dropped, ap_dropped + get(t, "ap.downlink_forwarded")));
    const double schedules = get(t, "proxy.schedules_sent");
    const double queued = get(t, "proxy.queued_packets");
    const double drops = get(t, "proxy.queue_drops");
    put("proxy.schedules_sent", schedules);
    put("proxy.queued_packets", queued);
    put("proxy.burst_bytes_per_burst",
        ratio(get(t, "proxy.burst_bytes.sum"), get(t, "proxy.burst_bytes.count")));
    put("proxy.empty_burst_markers_per_schedule",
        ratio(get(t, "proxy.empty_burst_markers"), schedules));
    put("proxy.queue_drops_pct", 100.0 * ratio(drops, queued + drops));
    for (const char* k : {"proxy.churn.joins", "proxy.churn.renegotiations",
                          "proxy.churn.dropped_bytes"})
      put(k, get(t, k));
    const double sched_rx = get(t, "client.schedules_received");
    const double sched_missed = get(t, "client.schedules_missed");
    put("client.schedules_received", sched_rx);
    put("client.schedules_missed_pct",
        100.0 * ratio(sched_missed, sched_rx + sched_missed));
    for (const char* k : {"client.resyncs", "client.escalated_sleeps",
                          "client.coast_breaks", "client.assoc_retries"})
      put(k, get(t, k));
    put("client.sleeps_per_schedule", ratio(get(t, "client.sleeps"), sched_rx));
    put("energy.ledger_rows", get(t, "energy.ledger_rows"));
    put("energy.saved_pct_worst_client", get(t, "energy.saved_pct_worst_client"));
    for (const char* k : {"tcp.retransmissions", "tcp.fast_retransmits", "tcp.timeouts"})
      put(k, get(t, k));
    put("transport.retx_per_app_mb",
        ratio(get(t, "tcp.retransmissions"), get(t, "transport.app_bytes") / 1e6));
    const double records = get(t, "trace.records");
    put("trace.records", records);
    put("trace.postmortem_s", postmortem_s);
    put("trace.postmortem_ns_per_record", 1e9 * ratio(postmortem_s, records));
    const double pm_clients = get(t, "trace.pm_clients");
    put("trace.postmortem_minus_live_saved_pct",
        ratio(get(t, "trace.pm_saved_sum") - get(t, "trace.live_saved_sum"), pm_clients));
    for (const char* k : {"channel.state.attempts", "channel.state.losses",
                          "fault.windows_activated", "fault.ge_losses",
                          "fault.fade_losses", "obs.timeline_events",
                          "obs.metric_series", "check.audits_run",
                          "check.violations", "workload.pages_completed",
                          "workload.video_downshifts"})
      put(k, get(t, k));
    const double run_traced = median_of(true, scaled_run);
    std::vector<double> warm_untraced;
    for (std::size_t i = 1; i < batches.size(); ++i)
      if (!batches[i].traced) warm_untraced.push_back(scaled_run(batches[i]));
    put("bench.trace_overhead_run_s", run_traced - median(warm_untraced));
    put("bench.host_probe_s", median_of(true, [](const Batch& b) { return b.probe_s; }));
    if (!args.spans_out.empty() && !log.write_jsonl(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   args.spans_out.c_str());
      correct = false;
    }
  }

  for (const auto& [def, v] : out) {
    if (!std::isfinite(v)) correct = false;
  }

  // Human-readable summary, then the one-line JSON result.
  std::printf("perfbench %s seed=%llu: %zu batches x %zu ops in %.2f s%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              batches.size(), w.ops.size(), measured_s,
              args.trace ? " (alternating untraced/traced)" : "");
  std::printf("  raw wall medians: setup %.6f s, run %.6f s, teardown %.6f s; "
              "host probe %.6f s (nominal %.3f s)\n",
              median_of(false, [](const Batch& b) { return b.raw.setup_s; }),
              median_of(false, [](const Batch& b) { return b.raw.run_s; }),
              median_of(false, [](const Batch& b) { return b.raw.teardown_s; }),
              median_of(false, [](const Batch& b) { return b.probe_s; }),
              kNominalProbeS);
  for (const auto& [def, v] : out)
    std::printf("  %-40s %.6g %s\n", def->name, v, def->unit);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = std::isfinite(out[i].second) ? out[i].second : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                out[i].first->name, v, out[i].first->unit);
  }
  std::printf("}}\n");
  return 0;
}
