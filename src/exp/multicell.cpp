#include "exp/multicell.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "check/check.hpp"
#include "exp/digest.hpp"
#include "exp/parallel.hpp"

namespace pp::exp {

namespace {

// Backbone arrivals enter the destination cell as plain UDP datagrams on
// this well-known port; clients have no listener (the payload is sink
// traffic), but the datagram still rides the full proxy downlink path.
constexpr net::Port kBackbonePort = 7977;
// First cross-traffic emission (plus the cell's phase).
constexpr sim::Time kCrossStart = sim::Time::sec(1);

}  // namespace

Cell::Cell(int id, const MultiCellConfig& cfg)
    : id_{id}, num_cells_{cfg.num_cells}, cross_{cfg.cross} {
  ScenarioConfig cell_cfg = cfg.cell;
  // Statistically independent cells, each individually reproducible.
  cell_cfg.seed = cfg.cell.seed + 9973ULL * static_cast<std::uint64_t>(id);
  run_ = std::make_unique<ScenarioRun>(cell_cfg, [this](Testbed& bed) {
    // pp-lint: allow(hot-path-alloc): once per cell at construction
    gateway_ = &bed.add_server("backbone" + std::to_string(id_));
  });
  gw_sock_ = std::make_unique<transport::UdpSocket>(*gateway_, kBackbonePort);

  if (num_cells_ > 1 && cross_.fanout > 0) {
    // Phase-stagger emissions by cell id so the backbone exchange pattern
    // interleaves deterministically instead of synchronizing.
    const sim::Duration phase = sim::Time::ns(
        cross_.period.count_ns() * id_ / num_cells_);
    const sim::Time first = kCrossStart + phase;
    run_->bed().sim().at(first, [this] { emit(run_->bed().sim().now()); });
    // Start the round-robin cursors at this cell's id so the first targets
    // differ across cells.
    rr_cell_ = id_;
  }
}

void Cell::emit(sim::Time now) {
  const int clients_per_cell =
      static_cast<int>(run_->config().roles.size());
  outbox_.reserve(outbox_.size() + static_cast<std::size_t>(cross_.fanout));
  for (int k = 0; k < cross_.fanout; ++k) {
    rr_cell_ = (rr_cell_ + 1) % num_cells_;
    if (rr_cell_ == id_) rr_cell_ = (rr_cell_ + 1) % num_cells_;
    outbox_.push_back(Msg{rr_cell_, rr_client_ % clients_per_cell,
                          cross_.bytes, now});
    ++rr_client_;
  }
  run_->bed().sim().at(now + cross_.period,
                       [this] { emit(run_->bed().sim().now()); });
}

void Cell::inject(const Msg& m, sim::Time at) {
  transport::UdpSocket* sock = gw_sock_.get();
  const net::Ipv4Addr dst = testbed_client_ip(m.dst_client);
  const std::uint32_t bytes = m.bytes;
  run_->bed().sim().at(
      at, [sock, dst, bytes] { sock->send_to(dst, kBackbonePort, bytes); });
}

MultiCellTestbed::MultiCellTestbed(const MultiCellConfig& cfg) : cfg_{cfg} {
  if (cfg.num_cells < 1)
    throw std::invalid_argument("MultiCellTestbed: num_cells must be >= 1");
  if (cfg.backbone_latency <= sim::Time::zero())
    throw std::invalid_argument(
        "MultiCellTestbed: backbone_latency must be positive (it is the "
        "epoch length)");
  if (cfg.num_cells > 1 && cfg.cross.fanout > 0) {
    // Cross traffic picks a destination client modulo the cell size and
    // re-arms every period: an empty cell or a period <= 0 would divide
    // by zero or never let an epoch finish.
    if (cfg.cell.roles.empty())
      throw std::invalid_argument(
          "MultiCellTestbed: cross traffic needs clients in every cell");
    if (cfg.cross.period <= sim::Time::zero())
      throw std::invalid_argument(
          "MultiCellTestbed: cross.period must be positive");
  }
  cells_.reserve(static_cast<std::size_t>(cfg.num_cells));
  for (int c = 0; c < cfg.num_cells; ++c)
    cells_.push_back(std::make_unique<Cell>(c, cfg));
}

MultiCellTestbed::~MultiCellTestbed() = default;

MultiCellResult MultiCellTestbed::run(unsigned threads,
                                      const std::vector<int>& cell_order) {
  const sim::Time horizon = sim::Time::seconds(cfg_.cell.duration_s);
  const sim::Duration epoch = cfg_.backbone_latency;

  std::vector<int> order(cells_.size());
  if (cell_order.empty()) {
    std::iota(order.begin(), order.end(), 0);
  } else {
    PP_CHECK(cell_order.size() == cells_.size(),
             "exp.multicell.order_size");
    order = cell_order;
  }

  sim::Time t = sim::Time::zero();
  while (t < horizon) {
    const sim::Time t_next = std::min(t + epoch, horizon);
    // Advance every cell one epoch in parallel; a cell touches only its
    // own simulator, so the only shared state is the task queue itself.
    // pp-lint: allow(hot-path-alloc): one task list per epoch, not per event
    std::vector<std::function<int()>> tasks;
    tasks.reserve(order.size());
    for (const int idx : order) {
      Cell* cell = cells_[static_cast<std::size_t>(idx)].get();
      tasks.push_back([cell, t_next] {
        cell->advance(t_next);
        return 0;
      });
    }
    run_parallel(tasks, threads);
    // Epoch barrier: route every outbox in cell-id order (NOT dispatch
    // order — routing must not depend on the permutation above).  A
    // message sent during [t, t_next) arrives at send + L, which is >=
    // t_next = every cell's current clock: never in anyone's past.
    for (auto& src : cells_) {
      for (const Cell::Msg& m : src->outbox()) {
        const sim::Time at = m.sent_at + cfg_.backbone_latency;
        Cell& dst = *cells_[static_cast<std::size_t>(m.dst_cell)];
        PP_CHECK_AT(at >= t_next, "exp.multicell.backbone_causality", at);
        dst.inject(m, at);
        ++backbone_messages_;
      }
      src->outbox().clear();
    }
    t = t_next;
  }

  // Teardown: finalize and collect serially in cell-id order; fold the
  // per-cell observer digests and merge the per-cell registries in that
  // same fixed order so the results are independent of worker count.
  MultiCellResult res;
  res.cells.reserve(cells_.size());
  res.backbone_messages = backbone_messages_;
  std::uint64_t digest = kFnvOffset;
  bool any_obs = false;
  for (auto& cp : cells_) {
    res.cells.push_back(cp->run().finish());
    res.events_total += cp->run().bed().sim().events_fired();
    if (auto obs = cp->run().bed().observer()) {
      digest = fnv1a_u64(digest, observer_digest(*obs));
      any_obs = true;
      res.merged.merge_from(obs->metrics);
    }
  }
  res.digest = any_obs ? digest : 0;
  return res;
}

}  // namespace pp::exp
