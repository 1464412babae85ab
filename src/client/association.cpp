#include "client/association.hpp"

#include <memory>
#include <utility>

#include "obs/metrics.hpp"

namespace pp::client {
namespace {

// Stream tag for association backoff jitter (see DESIGN.md on named RNG
// streams).  Unique across the project — pp_analyze rng-stream-unique.
constexpr std::uint64_t kAssocStreamTag = 0xA550'C1A7'0B0F'F5E7ULL;

// Weyl increment decorrelates per-client streams derived from one tag.
constexpr std::uint64_t kClientMix = 0x9E37'79B9'7F4A'7C15ULL;

}  // namespace

sim::Rng assoc_stream(std::uint64_t run_seed, net::Ipv4Addr self) {
  return sim::Rng{(run_seed ^ kAssocStreamTag) + kClientMix * self.raw()};
}

AssociationAgent::AssociationAgent(sim::Simulator& sim, net::Ipv4Addr self,
                                   std::uint64_t run_seed, SendFn send,
                                   std::function<void()> on_down)
    : sim_{sim},
      self_{self},
      send_{std::move(send)},
      on_down_{std::move(on_down)},
      rng_{assoc_stream(run_seed, self)} {}

AssociationAgent::~AssociationAgent() { timer_.cancel(); }

void AssociationAgent::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(obs_ = hook; if (auto* m = obs_.metrics()) {
    ctr_retries_ = m->counter("client.assoc.retries");
  });
}

sim::Duration AssociationAgent::backoff(int attempt) {
  double mult = 1.0;
  for (int i = 0; i < attempt; ++i) mult *= kBackoffBase;
  double ns = static_cast<double>(kRetryTimeout.count_ns()) * mult;
  const double cap = static_cast<double>(kBackoffCap.count_ns());
  if (ns > cap) ns = cap;
  // Deterministic jitter from the named stream desynchronizes clients that
  // start a handshake at the same instant (churn storms).
  const double j = 1.0 + kJitterFrac * (2.0 * rng_.uniform() - 1.0);
  return sim::Time::ns(static_cast<std::int64_t>(ns * j));
}

void AssociationAgent::send_control(proxy::AssocKind kind) {
  auto msg = std::make_shared<proxy::AssocMessage>();
  msg->kind = kind;
  msg->seq = ctrl_seq_;
  net::Packet pkt = net::make_packet();
  pkt.src = self_;
  pkt.src_port = proxy::kAssocPort;
  pkt.dst = proxy::kProxyIp;
  pkt.dst_port = proxy::kAssocPort;
  pkt.proto = net::Protocol::Udp;
  pkt.payload = proxy::AssocMessage::kWireBytes;
  pkt.data = std::move(msg);
  pkt.sent_at = sim_.now();
  if (send_) send_(std::move(pkt));
}

void AssociationAgent::join() {
  // Legal from Disassociated (normal rejoin) and Draining (flapped back
  // before the leave completed: the Join simply supersedes it proxy-side).
  if (state_ == State::Associating || state_ == State::AcquiringSrp ||
      state_ == State::Associated)
    return;
  timer_.cancel();
  state_ = State::Associating;
  attempt_ = 0;
  ++ctrl_seq_;
  ++stats_.joins_sent;
  send_join();
}

void AssociationAgent::send_join() {
  if (attempt_ > 0) {
    ++stats_.join_retries;
    PP_OBS(if (ctr_retries_) ctr_retries_->inc());
  }
  send_control(proxy::AssocKind::Join);
  timer_ = sim_.after(backoff(attempt_), [this] {
    ++attempt_;
    send_join();  // unbounded: without membership there is nothing else
  });
}

void AssociationAgent::leave() {
  if (state_ == State::Disassociated || state_ == State::Draining) return;
  timer_.cancel();
  state_ = State::Draining;
  attempt_ = 0;
  ++ctrl_seq_;
  ++stats_.leaves_sent;
  send_leave();
}

void AssociationAgent::send_leave() {
  if (attempt_ > 0) {
    ++stats_.leave_retries;
    PP_OBS(if (ctr_retries_) ctr_retries_->inc());
  }
  send_control(proxy::AssocKind::Leave);
  timer_ = sim_.after(backoff(attempt_), [this] {
    if (attempt_ >= kMaxLeaveRetries) {
      // The proxy's drain deadline bounds its side; ours is bounded here.
      // Going dark unacked is safe: the proxy eventually drops the queue.
      ++stats_.leave_abandons;
      go_down();
      return;
    }
    ++attempt_;
    send_leave();
  });
}

void AssociationAgent::go_down() {
  timer_.cancel();
  state_ = State::Disassociated;
  if (on_down_) on_down_();
}

void AssociationAgent::on_packet(const proxy::AssocMessage& msg) {
  switch (msg.kind) {
    case proxy::AssocKind::JoinAck:
      if (state_ != State::Associating || msg.seq != ctrl_seq_) return;
      ++stats_.join_acks;
      timer_.cancel();
      state_ = State::AcquiringSrp;
      attempt_ = 0;
      // Admitted, but the SRP cadence is only known once a broadcast is
      // heard.  The renegotiated schedule normally lands within an
      // interval; if every copy is lost, fall back to a fresh Join (the
      // proxy re-acks and renegotiates again).
      timer_ = sim_.after(kSrpAcquireTimeout, [this] {
        ++stats_.srp_reacquires;
        state_ = State::Associating;
        ++ctrl_seq_;
        attempt_ = 0;
        ++stats_.joins_sent;
        send_join();
      });
      break;
    case proxy::AssocKind::LeaveAck:
      if (state_ != State::Draining || msg.seq != ctrl_seq_) return;
      ++stats_.leave_acks;
      go_down();
      break;
    case proxy::AssocKind::Join:
    case proxy::AssocKind::Leave:
      break;  // proxy-bound; not expected downlink
  }
}

void AssociationAgent::note_schedule() {
  if (state_ != State::AcquiringSrp) return;
  timer_.cancel();
  state_ = State::Associated;
}

}  // namespace pp::client
