#include "workload/video.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/check.hpp"

namespace pp::workload {

int fidelity_index(int nominal_kbps) {
  for (int i = 0; i < kNumFidelities; ++i)
    if (kFidelities[i].nominal_kbps == nominal_kbps) return i;
  throw std::invalid_argument("unknown fidelity: " +
                              std::to_string(nominal_kbps));
}

VideoPacketTrace generate_video_trace(int effective_kbps, std::uint64_t seed,
                                      VideoTraceParams params) {
  sim::Rng rng{seed};
  const int frames = static_cast<int>(params.duration_s * params.fps);
  const double frame_dt = 1.0 / params.fps;

  // Scene-level rate factors: each scene lasts 2-8 s with a lognormal
  // activity factor, giving the burstiness the scheduler must absorb.
  std::vector<double> weight(frames);
  int scene_end = 0;
  double scene_factor = 1.0;
  for (int f = 0; f < frames; ++f) {
    if (f >= scene_end) {
      scene_end = f + static_cast<int>(rng.uniform(2.0, 8.0) * params.fps);
      scene_factor = std::clamp(rng.lognormal(0.0, 0.4), 0.4, 2.2);
    }
    const bool i_frame = f % params.gop == 0;
    weight[f] = (i_frame ? params.i_frame_weight : 1.0) * scene_factor;
  }
  double total_weight = 0;
  for (double w : weight) total_weight += w;

  const double total_bytes =
      static_cast<double>(effective_kbps) * 1000.0 / 8.0 * params.duration_s;

  VideoPacketTrace trace;
  for (int f = 0; f < frames; ++f) {
    auto frame_bytes =
        static_cast<std::uint32_t>(total_bytes * weight[f] / total_weight);
    if (frame_bytes == 0) continue;
    // Packetize to the MTU, spreading chunks across the frame interval
    // (RealServer paces within a frame rather than bursting).
    const std::uint32_t npkts = (frame_bytes + params.mtu - 1) / params.mtu;
    for (std::uint32_t k = 0; k < npkts; ++k) {
      const std::uint32_t bytes =
          k + 1 < npkts ? params.mtu : frame_bytes - params.mtu * (npkts - 1);
      const double off =
          f * frame_dt + frame_dt * static_cast<double>(k) / npkts;
      trace.push_back(VideoPacket{sim::Time::seconds(off), bytes,
                                  static_cast<std::uint32_t>(f)});
    }
  }
  return trace;
}

// -- Server ----------------------------------------------------------------------

VideoServer::VideoServer(net::Node& node, VideoServerParams params)
    : node_{node},
      params_{params},
      control_{node, kRtspPort},
      media_{node, kMediaPort} {
  control_.set_on_accept([this](transport::TcpConnection& c) {
    const net::Ipv4Addr client = c.remote().ip;
    c.set_on_deliver([this, client](std::uint64_t) {
      // The PLAY request arrived; start streaming (idempotent per client).
      if (streams_.find(client) == streams_.end()) start_stream(client);
    });
  });
  media_.set_receive_fn(
      [this](const net::Packet& pkt) { on_receiver_report(pkt); });
}

const VideoPacketTrace& VideoServer::trace_for(int fidelity_idx) {
  PP_CHECK(fidelity_idx >= 0 && fidelity_idx < kNumFidelities,
           "workload.video.fidelity_index");
  auto& t = traces_[fidelity_idx];
  if (t.empty()) {
    t = generate_video_trace(kFidelities[fidelity_idx].effective_kbps,
                             params_.trace_seed + fidelity_idx, params_.trace);
  }
  return t;
}

void VideoServer::expect_client(net::Ipv4Addr client, int fidelity_idx) {
  expected_[client] = fidelity_idx;
}

void VideoServer::start_stream(net::Ipv4Addr client) {
  auto it = expected_.find(client);
  if (it == expected_.end()) return;  // unknown client; ignore
  auto s = std::make_unique<Stream>();
  s->client = client;
  s->fidelity_idx = it->second;
  s->epoch = node_.sim().now();
  s->last_adapt = node_.sim().now();
  s->stats.current_fidelity = s->fidelity_idx;
  Stream* raw = s.get();
  streams_.emplace(client, std::move(s));
  ++streams_started_;
  pump(*raw);
}

void VideoServer::pump(Stream& s) {
  const VideoPacketTrace& trace = trace_for(s.fidelity_idx);
  if (s.next_pkt >= trace.size()) {
    s.stats.finished = true;
    return;
  }
  const VideoPacket& vp = trace[s.next_pkt];
  const sim::Time due = s.epoch + vp.offset;
  s.timer = node_.sim().at(std::max(due, node_.sim().now()), [this, &s] {
    const VideoPacketTrace& tr = trace_for(s.fidelity_idx);
    const VideoPacket& pkt = tr[s.next_pkt];
    auto chunk = std::make_shared<MediaChunk>();
    chunk->seq = s.seq++;
    chunk->fidelity = static_cast<std::uint8_t>(s.fidelity_idx);
    media_.send_to(s.client, kMediaPort, pkt.bytes, std::move(chunk));
    ++s.stats.packets_sent;
    s.stats.bytes_sent += pkt.bytes;
    ++s.next_pkt;
    pump(s);
  });
}

void VideoServer::on_receiver_report(const net::Packet& pkt) {
  if (!params_.adaptive) return;
  const auto* rr = dynamic_cast<const ReceiverReport*>(pkt.data.get());
  if (rr == nullptr) return;
  auto it = streams_.find(pkt.src);
  if (it == streams_.end()) return;
  Stream& s = *it->second;
  if (rr->loss_fraction <= kAdaptLossThreshold) return;
  if (node_.sim().now() - s.last_adapt < kAdaptCooldown) return;
  if (s.fidelity_idx == 0) return;
  // RealServer believes the connection is lossy and adapts the stream to a
  // lower-quality, lower-bandwidth one (Section 4.3).
  const double progress =
      s.next_pkt < trace_for(s.fidelity_idx).size()
          ? trace_for(s.fidelity_idx)[s.next_pkt].offset.to_seconds() /
                params_.trace.duration_s
          : 1.0;
  --s.fidelity_idx;
  s.stats.current_fidelity = s.fidelity_idx;
  ++s.stats.downshifts;
  s.last_adapt = node_.sim().now();
  // Resume the lower-fidelity trace at the same point in stream time.
  const VideoPacketTrace& lower = trace_for(s.fidelity_idx);
  std::size_t pos = 0;
  while (pos < lower.size() &&
         lower[pos].offset.to_seconds() < progress * params_.trace.duration_s)
    ++pos;
  s.next_pkt = pos;
}

const VideoServer::StreamStats* VideoServer::stats_for(
    net::Ipv4Addr client) const {
  auto it = streams_.find(client);
  return it == streams_.end() ? nullptr : &it->second->stats;
}

// -- Client ----------------------------------------------------------------------

VideoClient::VideoClient(net::Node& node, net::Ipv4Addr server)
    : node_{node},
      server_{server},
      media_{node, kMediaPort},
      last_report_{node.sim().now()} {
  media_.set_receive_fn([this](const net::Packet& pkt) { on_media(pkt); });
}

void VideoClient::play(sim::Time at) {
  node_.sim().at(at, [this] {
    control_ = transport::tcp_connect(node_, server_, kRtspPort);
    control_->set_on_established(
        [this] { control_->send(kPlayRequestBytes); });
  });
}

void VideoClient::on_media(const net::Packet& pkt) {
  ++stats_.packets;
  ++window_packets_;
  stats_.bytes += pkt.payload;
  if (const auto* chunk = dynamic_cast<const MediaChunk*>(pkt.data.get())) {
    stats_.highest_seq = std::max(stats_.highest_seq, chunk->seq);
    stats_.fidelity_seen = chunk->fidelity;
  }
  maybe_send_report();
}

double VideoClient::loss_fraction() const {
  if (stats_.packets == 0) return 0;
  const double expected = static_cast<double>(stats_.highest_seq) + 1.0;
  return std::max(0.0, 1.0 - static_cast<double>(stats_.packets) / expected);
}

double VideoClient::window_loss_fraction() const {
  const double expected =
      static_cast<double>(stats_.highest_seq - window_base_seq_);
  if (expected <= 0) return 0;
  return std::max(0.0,
                  1.0 - static_cast<double>(window_packets_) / expected);
}

void VideoClient::maybe_send_report() {
  // Sent while the WNIC is already awake (we just received data).
  if (node_.sim().now() - last_report_ < kReportInterval) return;
  last_report_ = node_.sim().now();
  auto rr = std::make_shared<ReceiverReport>();
  rr->loss_fraction = window_loss_fraction();
  rr->highest_seq = stats_.highest_seq;
  window_packets_ = 0;
  window_base_seq_ = stats_.highest_seq;
  media_.send_to(server_, kMediaPort, 64, std::move(rr));
  ++stats_.reports_sent;
}

}  // namespace pp::workload
