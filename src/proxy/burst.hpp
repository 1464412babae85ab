// BurstSession — the proxy's single burst-emission API (Section 3.2.2).
//
// One session per scheduled slot per interval.  open() runs at the slot's
// rp_offset: it snapshots the client's chunk queue up to the slot budget
// (moving chunk views, never copying datagrams), plans the TCP allowance,
// arms the end-of-burst marker, and hands the whole raw chain to the
// proxy's burst transmitter as ONE batched medium reservation (a single
// airtime computation for the burst plus the marked terminator).  That
// transmitter is mandatory, so there is no per-packet emission path.
// close() runs at the slot's end and shuts the TCP send gates.
//
// The session is a transient view object (proxy reference + schedule
// entry, copied into the two slot timers) — cheap enough to construct in
// an event callback's inline storage, and self-contained so a schedule
// renegotiation that cancels the timers leaves nothing dangling.
//
// The mid-interval-shrink (departed client) skip, the graceful-leave
// drain accounting and the empty-burst marker all live behind this one
// interface.
#pragma once

#include "proxy/schedule.hpp"

namespace pp::proxy {

class TransparentProxy;

class BurstSession {
 public:
  BurstSession(TransparentProxy& proxy, const ScheduleEntry& entry)
      : proxy_{proxy}, entry_{entry} {}

  // Slot start: snapshot, plan, mark, emit (one reservation), open gates.
  void open();
  // Slot end: close the client's TCP send gates.
  void close();

 private:
  void emit_empty_marker();

  TransparentProxy& proxy_;
  ScheduleEntry entry_;
};

}  // namespace pp::proxy
