#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "channel/spec.hpp"
#include "check/check.hpp"
#include "exp/builder.hpp"
#include "exp/digest.hpp"
#include "trace/postmortem.hpp"

namespace perfbench {

namespace {

using pp::exp::IntervalPolicy;
using pp::exp::ScenarioBuilder;
using pp::sim::Time;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Scenario seed k of a workload seed: distinct per (seed, k), kept to 31
// bits so the simulator's own seed arithmetic stays far from overflow.
std::uint64_t derive_seed(std::uint64_t seed, int k) {
  return 1 + (splitmix64(splitmix64(seed) + static_cast<std::uint64_t>(k)) &
              0x7FFFFFFFULL);
}

void add_scenario(Workload& w, std::string name, std::uint64_t seed,
                  std::function<pp::exp::ScenarioConfig()> make,
                  bool postmortem = false) {
  Op op;
  op.name = std::move(name);
  op.seed = seed;
  op.scenario = std::move(make);
  op.postmortem = postmortem;
  w.ops.push_back(std::move(op));
}

// The paper's evaluation: every Fig. 4 and Fig. 5 access pattern under
// each dynamic burst-interval policy, trace kept for postmortem replay.
Workload paper_battery(std::uint64_t seed, Size size) {
  Workload w;
  w.name = "paper_battery";
  w.max_clients_alive = 10;
  auto patterns = pp::exp::presets::fig4_patterns();
  const auto fig5 = pp::exp::presets::fig5_patterns();
  auto policies = pp::exp::presets::dynamic_intervals();
  const double duration = size == Size::Tiny ? 6.0 : 140.0;
  if (size == Size::Tiny) {
    patterns.resize(1);
    patterns.push_back(fig5.front());
    policies = {{"500ms", IntervalPolicy::Fixed500}};
  } else {
    patterns.insert(patterns.end(), fig5.begin(), fig5.end());
  }
  for (const auto& [pname, pattern] : patterns) {
    for (const auto& [iname, policy] : policies) {
      const std::uint64_t s = derive_seed(seed, static_cast<int>(w.ops.size()));
      add_scenario(
          w, "fig:" + pname + "@" + iname, s,
          [pattern, policy, s, duration] {
            return ScenarioBuilder::fig4(pattern, policy)
                .seed(s)
                .duration_s(duration)
                .keep_trace()
                .keep_obs()
                .build();
          },
          /*postmortem=*/true);
    }
  }
  // The 56K pattern under 500 ms: the cheapest scenario to re-run.
  w.designated = size == Size::Tiny ? 0 : 1;
  return w;
}

// The repair paths: hostile faults, SRP blackouts, an overcommitted bursty
// channel under the channel-aware policies, and a churn storm with TCP
// members.  `replicas` independent seeds of the set make one batch.
Workload hostile_mix(std::uint64_t seed, Size size) {
  Workload w;
  w.name = "hostile_mix";
  w.max_clients_alive = 32;
  const bool tiny = size == Size::Tiny;
  const int replicas = tiny ? 1 : 16;
  const double duration = tiny ? 40.0 : 140.0;
  for (int r = 0; r < replicas; ++r) {
    const std::string tag = "#" + std::to_string(r);
    auto next_seed = [&] {
      return derive_seed(seed, static_cast<int>(w.ops.size()));
    };
    std::uint64_t s = next_seed();
    add_scenario(w, "degradation" + tag, s, [s, duration] {
      return ScenarioBuilder::degradation(duration).seed(s).build();
    });
    s = next_seed();
    add_scenario(w, "fault_battery" + tag, s, [s, duration] {
      return ScenarioBuilder::fault_battery(10, duration, true)
          .seed(s)
          .keep_obs()
          .build();
    });
    for (const IntervalPolicy p :
         {IntervalPolicy::Opportunistic500, IntervalPolicy::Probabilistic500}) {
      s = next_seed();
      add_scenario(w, "frontier:" + pp::exp::policy_name(p) + tag, s,
                   [s, p, duration] {
                     // frontier_sweep's overcommitted bursty cell.
                     return ScenarioBuilder{}
                         .video(12, 2)
                         .video_adaptive(false)
                         .policy(p)
                         .measured_goodput()
                         .seed(s)
                         .duration_s(duration)
                         .wireless_p_loss(0.0)
                         .channel(pp::channel::ChannelSpec::ladder(3, 0.85))
                         .keep_obs()
                         .build();
                   });
    }
    s = next_seed();
    add_scenario(w, "churn_storm" + tag, s, [s, duration] {
      // churn_soak phase A's 32-client storm (25% of the cell flapping),
      // with web and ftp members among the 128K video streams.
      ScenarioBuilder b = ScenarioBuilder{}
                              .video(20, 1)
                              .web(8)
                              .ftp(4)
                              .policy(IntervalPolicy::Fixed500)
                              .seed(s)
                              .duration_s(duration)
                              .schedule_repeats(2)
                              .keep_obs();
      b.fault_spec().churn_storm(Time::seconds(2.0),
                                 Time::seconds(duration - 4.0), 0.25);
      return b.build();
    });
  }
  w.designated = 0;
  return w;
}

// bench/scale_sweep's full fleet: 16 cells x 6250 clients, 8 active per
// cell, one worker.
Workload fleet_idle(std::uint64_t seed, Size size) {
  const bool tiny = size == Size::Tiny;
  const int cells = tiny ? 2 : 16;
  const int per_cell = tiny ? 100 : 6250;
  const double seconds = tiny ? 6.0 : 32.0;
  Workload w;
  w.name = "fleet_idle";
  w.max_clients_alive = cells * per_cell;
  Op op;
  op.name = "fleet:" + std::to_string(cells) + "x" + std::to_string(per_cell);
  op.seed = derive_seed(seed, 0);
  op.fleet = [cells, per_cell, seconds, s = op.seed] {
    pp::exp::MultiCellConfig mc;
    mc.num_cells = cells;
    mc.cell.roles.assign(static_cast<std::size_t>(per_cell),
                         pp::exp::kRoleIdle);
    for (int i = 0; i < 4; ++i) mc.cell.roles[i] = 1;  // 128K video
    for (int i = 4; i < 8; ++i) mc.cell.roles[i] = pp::exp::kRoleWeb;
    mc.cell.policy = IntervalPolicy::Fixed500;
    mc.cell.seed = s;
    mc.cell.duration_s = seconds;
    mc.cell.video_start_s = 1.0;
    mc.cell.video_spacing_s = 0.25;
    mc.cell.web_pages = 2;
    mc.cell.per_client_obs = false;
    mc.backbone_latency = Time::ms(20);
    mc.cross.period = Time::ms(100);
    mc.cross.bytes = 600;
    mc.cross.fanout = 4;
    return mc;
  };
  w.ops.push_back(std::move(op));
  w.designated = 0;
  return w;
}

// -- Tally extraction -----------------------------------------------------------

void add(Tally& t, const std::string& key, double v) { t[key] += v; }

void keep_min(Tally& t, const std::string& key, double v) {
  const auto it = t.find(key);
  if (it == t.end() || v < it->second) t[key] = v;
}

void add_registry(Tally& t, const pp::obs::MetricsRegistry& m) {
  static const char* const kCounters[] = {
      "sim.events.scheduled",  "sim.events.fired",
      "sim.events.cancelled",  "sim.events.stale_pruned",
      "sim.alloc.callbacks_pooled", "sim.alloc.pool_allocs",
      "net.frames_sent",       "net.frames_missed",
      "net.bursts",            "ap.downlink_dropped",
      "ap.downlink_forwarded", "tcp.retransmissions",
      "tcp.fast_retransmits",  "tcp.timeouts",
      "channel.state.attempts", "channel.state.losses",
  };
  for (const char* name : kCounters)
    if (const auto* c = m.find_counter(name))
      add(t, name, static_cast<double>(c->value()));
  for (const char* name : {"net.burst_frames", "proxy.burst_bytes"}) {
    if (const auto* h = m.find_histogram(name)) {
      add(t, std::string{name} + ".count", static_cast<double>(h->count()));
      add(t, std::string{name} + ".sum", static_cast<double>(h->sum()));
    }
  }
  add(t, "obs.metric_series",
      static_cast<double>(m.counters().size() + m.gauges().size() +
                          m.time_gauges().size() + m.histograms().size()));
}

// Folds an operation's tally into its batch's: sums, except the worst
// client, which is a minimum.
void merge(Tally& into, const Tally& from) {
  for (const auto& [k, v] : from) {
    if (k == "energy.saved_pct_worst_client") keep_min(into, k, v);
    else add(into, k, v);
  }
}

// Per-scenario fields of one result (a scenario, or one fleet cell).
void add_result(Tally& t, const pp::exp::ScenarioResult& res) {
  const auto& clients = res.clients;
  const double n = static_cast<double>(clients.size());
  add(t, "out.clients", n);
  add(t, "sim.client_s", n * res.horizon.to_seconds());
  add(t, "energy.ledger_rows", n);
  add(t, "check.audits_run", 1);
  for (const auto& c : clients) {
    add(t, "out.saved_sum", c.saved_pct);
    add(t, "out.packets_missed", static_cast<double>(c.packets_missed));
    add(t, "out.packets_addressed",
        static_cast<double>(c.packets_received + c.packets_missed));
    keep_min(t, "energy.saved_pct_worst_client", c.saved_pct);
    add(t, "out.delay_wsum",
        c.mean_delay_ms * static_cast<double>(c.delay_samples));
    add(t, "out.delay_samples", static_cast<double>(c.delay_samples));
    if (c.role == pp::exp::kRoleWeb)
      add(t, "out.web_page_ms_sum", c.page_time_ms * c.pages_completed);
    if (c.role == pp::exp::kRoleWeb || c.role == pp::exp::kRoleFtp)
      add(t, "transport.app_bytes", static_cast<double>(c.app_bytes));
    add(t, "client.schedules_received",
        static_cast<double>(c.schedules_received));
    add(t, "client.schedules_missed", static_cast<double>(c.schedules_missed));
    add(t, "client.sleeps", static_cast<double>(c.sleeps));
    add(t, "client.resyncs", static_cast<double>(c.resyncs));
    add(t, "client.escalated_sleeps", static_cast<double>(c.escalated_sleeps));
    add(t, "client.coast_breaks", static_cast<double>(c.coast_breaks));
    add(t, "client.assoc_retries", static_cast<double>(c.assoc_retries));
    add(t, "workload.pages_completed", c.pages_completed);
    if (pp::exp::is_video_role(c.role) && c.video_fidelity_final >= 0)
      add(t, "workload.video_downshifts",
          std::max(0, c.role - c.video_fidelity_final));
  }
  const auto& ps = res.proxy_stats;
  add(t, "proxy.schedules_sent", static_cast<double>(ps.schedules_sent));
  add(t, "proxy.queued_packets", static_cast<double>(ps.queued_packets));
  add(t, "proxy.queue_drops", static_cast<double>(ps.queue_drops));
  add(t, "proxy.empty_burst_markers",
      static_cast<double>(ps.empty_burst_markers));
  add(t, "proxy.churn.joins", static_cast<double>(ps.joins));
  add(t, "proxy.churn.renegotiations", static_cast<double>(ps.renegotiations));
  add(t, "proxy.churn.dropped_bytes",
      static_cast<double>(ps.churn_dropped_bytes));
  const auto& fs = res.fault_stats;
  add(t, "fault.windows_activated", static_cast<double>(fs.windows_activated));
  add(t, "fault.ge_losses", static_cast<double>(fs.ge_losses));
  add(t, "fault.fade_losses", static_cast<double>(fs.fade_losses));
  add(t, "trace.records", static_cast<double>(res.trace.size()));
}

// Plausibility gate on one result: every client accounted, savings and
// losses finite percentages, and the cell as a whole saving energy.
bool plausible(const pp::exp::ScenarioResult& res, std::size_t clients,
               std::string& why) {
  if (res.clients.size() != clients) {
    why = "client count mismatch";
    return false;
  }
  double saved = 0;
  for (const auto& c : res.clients) {
    if (!std::isfinite(c.saved_pct) || c.saved_pct > 100.0 ||
        !std::isfinite(c.loss_pct) || c.loss_pct < 0 || c.loss_pct > 100.0) {
      why = "client " + c.ip.str() + " has an out-of-range saving or loss";
      return false;
    }
    saved += c.saved_pct;
  }
  if (!(saved > 0)) {
    why = "no energy saved";
    return false;
  }
  return true;
}

// The daemon configuration the live clients of `cfg` ran (mirrors
// ScenarioRun's construction), so the replay prices the same policy.
pp::client::DaemonConfig live_daemon_config(const pp::exp::ScenarioConfig& cfg) {
  pp::client::DaemonConfig dc;
  dc.comp.mode = cfg.compensation;
  dc.comp.early = cfg.early_transition;
  if (cfg.jitter_guard) {
    const pp::net::AccessPointParams ap = cfg.ap.value_or(pp::net::AccessPointParams{});
    dc.comp.jitter_bound =
        ap.jitter_max + (ap.p_spike > 0 ? ap.spike_max : Time::zero());
  }
  dc.sleep_at_slot_end = cfg.policy == IntervalPolicy::SlottedStatic500;
  dc.honor_reuse = cfg.honor_reuse;
  dc.escalation.enabled = cfg.miss_escalation;
  return dc;
}

// Postmortem agreement bound (percentage points): trace_test pins replay
// within 6 of the live saving per client.
constexpr double kPostmortemTolerancePct = 6.0;

bool run_scenario_op(const Op& op, int op_index, int batch, int root,
                     Phases& ph, Tally& tally, std::uint64_t& digest,
                     SpanLog* log) {
  const pp::exp::ScenarioConfig cfg = op.scenario();
  std::unique_ptr<pp::exp::ScenarioRun> run;
  {
    Timed t{ph.setup_s, log, "exp.build", root, op_index, batch};
    run = std::make_unique<pp::exp::ScenarioRun>(cfg);
  }
  const double cpu0 = cpu_s();
  {
    Timed t{ph.run_s, log, "sim.advance", root, op_index, batch};
    run->advance(run->horizon());
  }
  ph.run_cpu_s += cpu_s() - cpu0;
  pp::exp::ScenarioResult res;
  {
    Timed t{ph.teardown_s, log, "exp.finish", root, op_index, batch};
    res = run->finish();
  }
  Tally local;
  std::string why;
  bool ok = plausible(res, cfg.roles.size(), why);
  if (op.postmortem) {
    std::vector<pp::net::Ipv4Addr> ips;
    for (const auto& c : res.clients) ips.push_back(c.ip);
    std::vector<pp::trace::PostmortemReport> reports;
    const double pm_cpu0 = cpu_s();
    {
      Timed t{ph.run_s, log, "trace.postmortem", root, op_index, batch};
      const pp::trace::PostmortemAnalyzer analyzer{res.trace};
      reports = analyzer.analyze_all(ips, live_daemon_config(cfg), res.horizon);
    }
    ph.run_cpu_s += cpu_s() - pm_cpu0;
    double pm = 0, live = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      pm += 100.0 * reports[i].saved_fraction;
      live += res.clients[i].saved_pct;
    }
    const double n = static_cast<double>(reports.size());
    add(local, "trace.pm_clients", n);
    add(local, "trace.pm_saved_sum", pm);
    add(local, "trace.live_saved_sum", live);
    if (ok && !(n > 0 && std::abs(pm - live) / n <= kPostmortemTolerancePct)) {
      ok = false;
      why = "postmortem saving disagrees with the live clients";
    }
  }
  if (res.obs) {
    add_registry(local, res.obs->metrics);
    add(local, "obs.timeline_events",
        static_cast<double>(res.obs->timeline.size() +
                            res.obs->timeline.dropped()));
    digest = pp::exp::observer_digest(*res.obs);
  }
  add_result(local, res);
  {
    Timed t{ph.teardown_s, log, "exp.teardown", root, op_index, batch};
    run.reset();
    res = pp::exp::ScenarioResult{};
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s: %s\n", op.name.c_str(), why.c_str());
    return false;
  }
  merge(tally, local);
  return true;
}

bool run_fleet_op(const Op& op, int op_index, int batch, int root, Phases& ph,
                  Tally& tally, std::uint64_t& digest, SpanLog* log) {
  const pp::exp::MultiCellConfig mc = op.fleet();
  std::unique_ptr<pp::exp::MultiCellTestbed> fleet;
  {
    Timed t{ph.setup_s, log, "exp.build", root, op_index, batch};
    fleet = std::make_unique<pp::exp::MultiCellTestbed>(mc);
  }
  pp::exp::MultiCellResult res;
  const double cpu0 = cpu_s();
  {
    // run() advances every cell and then finishes and collects them.
    Timed t{ph.run_s, log, "exp.multicell.run", root, op_index, batch};
    res = fleet->run(1);
  }
  ph.run_cpu_s += cpu_s() - cpu0;
  Tally local;
  std::string why;
  bool ok = res.digest != 0 && res.backbone_messages > 0;
  if (!ok) why = "no replay digest or no backbone traffic";
  for (const auto& cell : res.cells) {
    if (ok && !plausible(cell, mc.cell.roles.size(), why)) ok = false;
    add_result(local, cell);
  }
  add_registry(local, res.merged);
  for (int i = 0; i < fleet->num_cells(); ++i) {
    if (const auto* tl = fleet->cell(i).run().bed().timeline())
      add(local, "obs.timeline_events",
          static_cast<double>(tl->size() + tl->dropped()));
  }
  const double epochs = std::ceil(Time::seconds(mc.cell.duration_s).to_seconds() /
                                  mc.backbone_latency.to_seconds() - 1e-9);
  add(local, "exp.multicell.epochs", epochs);
  add(local, "exp.multicell.backbone_msgs",
      static_cast<double>(res.backbone_messages));
  digest = res.digest;
  {
    Timed t{ph.teardown_s, log, "exp.teardown", root, op_index, batch};
    fleet.reset();
    res = pp::exp::MultiCellResult{};
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s: %s\n", op.name.c_str(), why.c_str());
    return false;
  }
  merge(tally, local);
  return true;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Size size, bool inject_invalid) {
  Workload w;
  if (name == "paper_battery") w = paper_battery(seed, size);
  else if (name == "hostile_mix") w = hostile_mix(seed, size);
  else if (name == "fleet_idle") w = fleet_idle(seed, size);
  else throw std::invalid_argument("unknown workload '" + name + "'");
  if (inject_invalid) {
    // A slotted TCP weight on a non-slotted policy: build() rejects it.
    add_scenario(w, "invalid:slotted_weight_on_fixed500",
                 derive_seed(seed, static_cast<int>(w.ops.size())), [] {
                   return ScenarioBuilder::fig4(std::vector<int>(10, 0),
                                                IntervalPolicy::Fixed500)
                       .slotted_tcp_weight(0.33)
                       .build();
                 });
  }
  return w;
}

bool run_op(const Op& op, int op_index, int batch, Phases& ph, Tally& tally,
            std::uint64_t& digest, SpanLog* log) {
  const int root = log ? log->begin("bench.op", -1, op_index, batch) : -1;
  bool ok = false;
  try {
    ok = op.fleet ? run_fleet_op(op, op_index, batch, root, ph, tally, digest,
                                 log)
                  : run_scenario_op(op, op_index, batch, root, ph, tally,
                                    digest, log);
  } catch (const pp::check::CheckError& e) {
    add(tally, "check.violations", 1);
    std::fprintf(stderr, "perfbench: %s: invariant tripped: %s\n",
                 op.name.c_str(), e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", op.name.c_str(), e.what());
  }
  if (log) log->end(root);
  return ok;
}

}  // namespace perfbench
