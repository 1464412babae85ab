// Streaming-video workload (Section 4.1).
//
// The paper streams a 1:59 trailer encoded at 56/128/256/512 kbps nominal
// (34/80/225/450 kbps effective — the encoder undershoots) from RealServer
// to RealOne clients.  We synthesize an equivalent VBR packet trace:
// 24 fps, I/P frame structure, scene-level rate variation, packetized to
// the MTU, normalized to the effective bitrate.
//
// The server implements the RealServer behaviour that matters for the
// paper's 512 kbps anomaly (Section 4.3): clients send receiver reports,
// and when reported loss exceeds a threshold the server adapts the stream
// down to the next lower fidelity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/node.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace pp::workload {

inline constexpr net::Port kRtspPort = 554;   // control (TCP)
inline constexpr net::Port kMediaPort = 5004;  // data + receiver reports (UDP)

// The paper's four fidelities.
struct VideoFidelity {
  int nominal_kbps;
  int effective_kbps;
};
inline constexpr VideoFidelity kFidelities[] = {
    {56, 34}, {128, 80}, {256, 225}, {512, 450}};
inline constexpr int kNumFidelities = 4;

// Index into kFidelities for a nominal rate (56 -> 0, ..., 512 -> 3).
int fidelity_index(int nominal_kbps);

struct VideoPacket {
  sim::Duration offset;  // from stream start
  std::uint32_t bytes;
  std::uint32_t frame;
};
using VideoPacketTrace = std::vector<VideoPacket>;

struct VideoTraceParams {
  double duration_s = 119.0;  // the 1:59 trailer
  int fps = 24;
  int gop = 12;              // one I frame per GOP
  double i_frame_weight = 5.0;
  std::uint32_t mtu = 1400;
};

// Deterministic VBR trace normalized to `effective_kbps`.
VideoPacketTrace generate_video_trace(int effective_kbps, std::uint64_t seed,
                                      VideoTraceParams params = {});

// -- Messages --------------------------------------------------------------------

struct MediaChunk : net::Message {
  std::uint32_t seq = 0;
  std::uint8_t fidelity = 0;  // index into kFidelities
};

struct ReceiverReport : net::Message {
  double loss_fraction = 0;
  std::uint32_t highest_seq = 0;
};

// -- Server ----------------------------------------------------------------------

struct VideoServerParams {
  bool adaptive = true;
  std::uint64_t trace_seed = 99;
  VideoTraceParams trace{};
};

class VideoServer {
 public:
  // RealServer-style adaptation: a receiver report above this loss
  // fraction downshifts the stream one fidelity, at most once per
  // kAdaptCooldown.
  static constexpr double kAdaptLossThreshold = 0.05;
  static constexpr sim::Duration kAdaptCooldown = sim::Time::sec(4);

  VideoServer(net::Node& node, VideoServerParams params = {});

  // Pre-register a client (out-of-band session description, standing in
  // for RTSP SETUP): when `client` connects on the control port and sends
  // its PLAY request, stream at kFidelities[fidelity_idx].
  void expect_client(net::Ipv4Addr client, int fidelity_idx);

  struct StreamStats {
    std::uint32_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    int current_fidelity = 0;
    int downshifts = 0;
    bool finished = false;
  };
  const StreamStats* stats_for(net::Ipv4Addr client) const;
  int streams_started() const { return streams_started_; }

 private:
  struct Stream {
    net::Ipv4Addr client;
    int fidelity_idx;
    sim::Time epoch;
    std::size_t next_pkt = 0;
    std::uint32_t seq = 0;
    sim::Time last_adapt;
    StreamStats stats;
    sim::EventHandle timer;
  };

  void start_stream(net::Ipv4Addr client);
  void pump(Stream& s);
  void on_receiver_report(const net::Packet& pkt);
  const VideoPacketTrace& trace_for(int fidelity_idx);

  net::Node& node_;
  VideoServerParams params_;
  transport::TcpServer control_;
  transport::UdpSocket media_;
  std::unordered_map<net::Ipv4Addr, int, net::Ipv4AddrHash> expected_;
  std::unordered_map<net::Ipv4Addr, std::unique_ptr<Stream>, net::Ipv4AddrHash>
      streams_;
  VideoPacketTrace traces_[kNumFidelities];  // lazily generated
  int streams_started_ = 0;
};

// -- Client ----------------------------------------------------------------------

// The player application on a mobile client's node.  Receiver reports are
// sent opportunistically while the WNIC is already awake receiving data,
// so reporting does not wreck the sleep schedule (the paper's clients
// require similar "minor modifications").
class VideoClient {
 public:
  // Minimum spacing between receiver reports.
  static constexpr sim::Duration kReportInterval = sim::Time::sec(2);
  // Size of the PLAY request sent on the control connection.
  static constexpr std::uint32_t kPlayRequestBytes = 200;

  VideoClient(net::Node& node, net::Ipv4Addr server);

  // Open the control connection and request the stream.
  void play(sim::Time at);

  struct Stats {
    std::uint32_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint32_t highest_seq = 0;
    int fidelity_seen = -1;  // last fidelity index observed
    std::uint32_t reports_sent = 0;
  };
  const Stats& stats() const { return stats_; }
  // Media packets lost over the whole stream (by sequence-number gap).
  double loss_fraction() const;
  // Loss within the current report window (what receiver reports carry,
  // RTCP-style — a recovered stream stops reporting loss).
  double window_loss_fraction() const;

 private:
  void on_media(const net::Packet& pkt);
  void maybe_send_report();

  net::Node& node_;
  net::Ipv4Addr server_;
  transport::UdpSocket media_;
  std::unique_ptr<transport::TcpConnection> control_;
  sim::Time last_report_;
  std::uint32_t window_packets_ = 0;   // received since the last report
  std::uint32_t window_base_seq_ = 0;  // highest_seq at the last report
  Stats stats_;
};

}  // namespace pp::workload
