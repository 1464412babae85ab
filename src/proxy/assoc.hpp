// Association control protocol (dynamic membership).
//
// Clients join and leave the proxy's cell at runtime: a Join admits the
// client into the demand set (and triggers an immediate SRP renegotiation
// so the newcomer hears a schedule right away), a Leave drains or drops
// its queue and removes it.  The exchange is a tiny unicast UDP protocol
// on a dedicated port — both directions use kAssocPort as source and
// destination so either end classifies control traffic in O(1), exactly
// like the schedule broadcast uses kSchedulePort.
//
// Reliability is client-driven: the proxy acks every Join/Leave, and the
// client retransmits with deterministic exponential backoff (jitter from
// its own named RNG stream) until acked.  All proxy-side handling is
// idempotent, so duplicated or reordered control packets are harmless.
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace pp::proxy {

// Association control port (client <-> proxy, unicast UDP both ways).
inline constexpr net::Port kAssocPort = 9010;

// The proxy's own address: source of its schedule broadcasts, burst
// markers and association acks, and destination of the clients' Join and
// Leave requests.
inline constexpr net::Ipv4Addr kProxyIp = net::Ipv4Addr::octets(10, 0, 0, 254);

enum class AssocKind : std::uint8_t {
  Join = 1,  // client -> proxy: admit me to the schedule
  JoinAck,   // proxy -> client: admitted (schedule renegotiation follows)
  Leave,     // client -> proxy: remove me (graceful: drain my queue first)
  LeaveAck,  // proxy -> client: departed; it is safe to power the radio off
};

inline const char* to_string(AssocKind k) {
  switch (k) {
    case AssocKind::Join: return "join";
    case AssocKind::JoinAck: return "join_ack";
    case AssocKind::Leave: return "leave";
    case AssocKind::LeaveAck: return "leave_ack";
  }
  return "?";
}

struct AssocMessage : net::Message {
  AssocKind kind = AssocKind::Join;
  // Chosen by the client per join()/leave() transition and reused across
  // retransmissions; the proxy echoes it in the matching ack so a stale
  // ack from an abandoned handshake is ignored.
  std::uint64_t seq = 0;
  // Leave only: drain the queue (bounded by the proxy's drain deadline)
  // before acking, instead of dropping it immediately.
  bool graceful = true;

  // Modeled wire size: kind + flags + seq + padding.
  static constexpr std::uint32_t kWireBytes = 16;
};

}  // namespace pp::proxy
