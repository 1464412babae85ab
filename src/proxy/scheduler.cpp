#include "proxy/scheduler.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "transport/tcp.hpp"

namespace pp::proxy {

sim::Duration demand_cost(const ClientDemand& d, const BandwidthEstimator& est) {
  const sim::Duration udp =
      d.udp_packets > 0 ? est.queue_cost(d.udp_packets, d.udp_bytes)
                        : est.bulk_cost(d.udp_bytes, transport::kMss);
  return udp + est.bulk_cost(d.tcp_bytes, transport::kMss, kTcpAckBytes);
}

std::vector<ScheduleEntry> lay_out(
    const std::vector<std::pair<net::Ipv4Addr, sim::Duration>>& slots,
    sim::Duration lead) {
  std::vector<ScheduleEntry> entries;
  entries.reserve(slots.size());
  sim::Duration offset = lead;
  for (const auto& [ip, dur] : slots) {
    entries.push_back(ScheduleEntry{ip, offset, dur});
    offset += dur;
  }
  return entries;
}

sim::Duration Scheduler::widened_cost(const ClientDemand& d,
                                      const BandwidthEstimator& est) const {
  sim::Duration cost = demand_cost(d, est) + kBurstGuard;
  if (measured_goodput_ && d.channel.known && d.channel.goodput_bps > 0) {
    const sim::Duration measured =
        sim::Time::seconds(static_cast<double>(d.total()) * 8.0 /
                           d.channel.goodput_bps) +
        kBurstGuard;
    if (measured > cost) cost = measured;
  }
  return cost;
}

bool slots_conflict(const ScheduleEntry& a, const ScheduleEntry& b) {
  if (a.kind == SlotKind::TcpOnly && b.kind == SlotKind::TcpOnly) return false;
  return a.rp_offset + a.duration > b.rp_offset &&
         b.rp_offset + b.duration > a.rp_offset;
}

BuiltSchedule FixedIntervalScheduler::build(
    const std::vector<ClientDemand>& demands, const BandwidthEstimator& est) {
  const sim::Duration available = interval_ - kSlotLead;
  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  std::vector<std::uint64_t> bytes;
  slots.reserve(demands.size());
  bytes.reserve(demands.size());
  sim::Duration total = sim::Time::zero();
  std::uint64_t total_bytes = 0;
  for (const auto& d : demands) {
    if (d.total() == 0) continue;
    const sim::Duration cost = widened_cost(d, est);
    slots.emplace_back(d.ip, cost);
    bytes.push_back(d.total());
    total += cost;
    total_bytes += d.total();
  }
  if (total > available && total_bytes > 0) {
    // Overcommitted: each active client gets a fraction of the available
    // interval proportional to its queue depth (Section 3.2.1).
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const double share = static_cast<double>(bytes[i]) /
                           static_cast<double>(total_bytes);
      slots[i].second = sim::Time::ns(static_cast<std::int64_t>(
          share * static_cast<double>(available.count_ns())));
    }
  }
  return BuiltSchedule{interval_, false, lay_out(slots, kSlotLead)};
}

BuiltSchedule VariableIntervalScheduler::build(
    const std::vector<ClientDemand>& demands, const BandwidthEstimator& est) {
  // Size the interval so every client can empty its queue.
  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  sim::Duration total = sim::Time::zero();
  for (const auto& d : demands) {
    if (d.total() == 0) continue;
    const sim::Duration cost = widened_cost(d, est);
    slots.emplace_back(d.ip, cost);
    total += cost;
  }
  sim::Duration interval = kSlotLead + total;
  if (interval < kMinInterval) interval = kMinInterval;
  if (interval > kMaxInterval) {
    // Demand exceeds the cap: shrink slots proportionally.
    const sim::Duration available = kMaxInterval - kSlotLead;
    const double scale = available.ratio(total);
    for (auto& [ip, dur] : slots) {
      dur = sim::Time::ns(static_cast<std::int64_t>(
          scale * static_cast<double>(dur.count_ns())));
    }
    interval = kMaxInterval;
  }
  return BuiltSchedule{interval, false, lay_out(slots, kSlotLead)};
}

BuiltSchedule StaticScheduler::build(const std::vector<ClientDemand>&,
                                     const BandwidthEstimator&) {
  // Permanent equal slots, independent of demand.
  PP_CHECK(!clients_.empty(), "proxy.static_scheduler.clients");
  const sim::Duration available = interval_ - kSlotLead;
  const sim::Duration each =
      available / static_cast<std::int64_t>(clients_.size());
  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  slots.reserve(clients_.size());
  for (const auto& ip : clients_) slots.emplace_back(ip, each);
  BuiltSchedule out{interval_, /*reuse_next=*/true, lay_out(slots, kSlotLead)};
  return out;
}

SlottedStaticScheduler::SlottedStaticScheduler(
    sim::Duration interval, double tcp_weight,
    std::vector<net::Ipv4Addr> udp_clients,
    std::vector<net::Ipv4Addr> tcp_clients)
    : interval_{interval},
      tcp_weight_{tcp_weight},
      udp_clients_{std::move(udp_clients)},
      tcp_clients_{std::move(tcp_clients)} {
  PP_CHECK(tcp_weight_ > 0 && tcp_weight_ < 1,
           "proxy.slotted_scheduler.tcp_weight");
}

BuiltSchedule SlottedStaticScheduler::build(const std::vector<ClientDemand>&,
                                            const BandwidthEstimator&) {
  const sim::Duration available = interval_ - kSlotLead;
  const sim::Duration tcp_slot = sim::Time::ns(static_cast<std::int64_t>(
      tcp_weight_ * static_cast<double>(available.count_ns())));
  std::vector<ScheduleEntry> entries;
  // Every client is awake during the TCP slot so that background TCP
  // latency stays bounded (Section 4.3 / Figure 7).
  for (const auto& ip : tcp_clients_)
    entries.push_back(ScheduleEntry{ip, kSlotLead, tcp_slot, SlotKind::TcpOnly});
  for (const auto& ip : udp_clients_)
    entries.push_back(ScheduleEntry{ip, kSlotLead, tcp_slot, SlotKind::TcpOnly});
  // Then equal UDP slots in the remainder.
  if (!udp_clients_.empty()) {
    const sim::Duration udp_total = available - tcp_slot;
    const sim::Duration each =
        udp_total / static_cast<std::int64_t>(udp_clients_.size());
    sim::Duration offset = kSlotLead + tcp_slot;
    for (const auto& ip : udp_clients_) {
      entries.push_back(ScheduleEntry{ip, offset, each, SlotKind::UdpOnly});
      offset += each;
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const ScheduleEntry& a, const ScheduleEntry& b) {
                     return a.rp_offset < b.rp_offset;
                   });
  return BuiltSchedule{interval_, /*reuse_next=*/true, std::move(entries)};
}

}  // namespace pp::proxy
