// Channel subsystem: draw discipline, stream isolation, the observer
// surface, the two-rung Gilbert-Elliott case, and composition with
// deep-fade fault windows on the medium.
#include <gtest/gtest.h>

#include <vector>

#include "channel/model.hpp"
#include "check/check.hpp"
#include "fault/plan.hpp"
#include "net/wireless.hpp"
#include "sim/simulator.hpp"

namespace pp::channel {
namespace {

using sim::Time;

net::Ipv4Addr client_a() { return net::Ipv4Addr::octets(172, 16, 0, 1); }
net::Ipv4Addr client_b() { return net::Ipv4Addr::octets(172, 16, 0, 2); }

net::Packet downlink_to(net::Ipv4Addr dst) {
  net::Packet p = net::make_packet();
  p.src = net::Ipv4Addr::octets(10, 0, 0, 1);
  p.dst = dst;
  p.proto = net::Protocol::Udp;
  p.payload = 500;
  return p;
}

// Per-client streams: one client's attempt volume must not shift another
// client's draw sequence.  B alone vs B interleaved with heavy A traffic
// must see the identical loss sequence.
TEST(ChannelModel, PerClientStreamsAreIndependent) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.8);
  const std::uint64_t seed = 7;

  ChannelModel solo{spec, seed};
  std::vector<bool> solo_losses;
  for (int i = 0; i < 5000; ++i) {
    solo_losses.push_back(solo.attempt_at(client_b(), Time::ms(5 * i)).lost);
  }

  ChannelModel mixed{spec, seed};
  std::vector<bool> mixed_losses;
  for (int i = 0; i < 5000; ++i) {
    mixed.attempt_at(client_a(), Time::ms(5 * i));
    mixed.attempt_at(client_a(), Time::ms(5 * i));
    mixed_losses.push_back(mixed.attempt_at(client_b(), Time::ms(5 * i)).lost);
  }

  EXPECT_EQ(solo_losses, mixed_losses);
}

// Same spec + same seed => bit-identical behaviour.
TEST(ChannelModel, SameSeedReproduces) {
  const ChannelSpec spec = ChannelSpec::ladder(4, 0.5);
  ChannelModel m1{spec, 99991};
  ChannelModel m2{spec, 99991};
  for (int i = 0; i < 3000; ++i) {
    const auto a1 = m1.attempt_at(client_a(), Time::ms(11 * i));
    const auto a2 = m2.attempt_at(client_a(), Time::ms(11 * i));
    ASSERT_EQ(a1.lost, a2.lost);
    ASSERT_EQ(a1.state, a2.state);
  }
}

TEST(ChannelModel, LadderStateStaysInBounds) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.9);
  ChannelModel model{spec, 13};
  for (int i = 0; i < 50000; ++i) {
    const auto a = model.attempt_at(client_a(), Time::ms(3 * i));
    ASSERT_GE(a.state, 0);
    ASSERT_LT(a.state, spec.num_states());
  }
  const ChannelView v = model.view_of(client_a());
  EXPECT_TRUE(v.known);
  EXPECT_GE(v.loss_ewma, 0.0);
  EXPECT_LE(v.loss_ewma, 1.0);
  EXPECT_GT(model.stats().attempts, 0u);
}

TEST(ChannelModel, ViewOfUnknownClientIsBestRungNominal) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.5);
  ChannelModel model{spec, 1};
  const ChannelView v = model.view_of(client_a());
  EXPECT_FALSE(v.known);
  EXPECT_EQ(v.state, 0);
  EXPECT_EQ(v.num_states, 3);
  EXPECT_DOUBLE_EQ(v.goodput_bps, spec.rungs[0].goodput_bps);
  EXPECT_FALSE(v.bad());
}

TEST(ChannelModel, BadMeansWorstRung) {
  // Force the chain into the worst rung with a certain down-transition.
  ChannelSpec spec;
  spec.rungs = {ChannelRung{0.0, 1.0, 0.0, 4e6},
                ChannelRung{0.0, 0.0, 1.0, 1e6}};
  ChannelModel model{spec, 5};
  // One tick elapsed: one (certain) transition.
  const auto a = model.attempt_at(client_a(), Time::ms(20));
  EXPECT_EQ(a.state, 1);
  EXPECT_TRUE(a.lost);
  EXPECT_TRUE(a.worsened);
  const ChannelView v = model.view_of(client_a());
  EXPECT_TRUE(v.bad());
  // Certain loss drags goodput below nominal via the EWMA discount.
  EXPECT_LT(v.goodput_bps, spec.rungs[1].goodput_bps);
}

// The chain is caught up with one transition draw per elapsed tick at each
// attempt, so a fade evolves in wall-clock time even while the client
// receives nothing.
TEST(ChannelModel, TickedChainCatchesUpWithElapsedTime) {
  ASSERT_EQ(ChannelModel::kTick, Time::ms(20));
  ChannelSpec spec;
  // Certain one-way descent: each tick moves the chain one rung down.
  spec.rungs = {ChannelRung{0.0, 1.0, 0.0, 4e6},
                ChannelRung{0.0, 1.0, 0.0, 2e6},
                ChannelRung{0.0, 0.0, 0.0, 1e6}};
  ChannelModel model{spec, 3};
  // Two ticks elapsed by t=41ms: bottom of a 3-rung ladder.
  const auto a = model.attempt_at(client_a(), Time::ms(41));
  EXPECT_EQ(a.state, 2);
  EXPECT_TRUE(a.worsened);
  // No further ticks before t=59ms: state unchanged, no transition draws.
  const auto b = model.attempt_at(client_a(), Time::ms(59));
  EXPECT_EQ(b.state, 2);
  EXPECT_FALSE(b.worsened);
}

TEST(ChannelModel, TickedAttemptsAreDeterministic) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.85);
  ChannelModel m1{spec, 99991};
  ChannelModel m2{spec, 99991};
  for (int i = 1; i <= 2000; ++i) {
    const Time t = Time::ms(7 * i);
    const auto a1 = m1.attempt_at(client_a(), t);
    const auto a2 = m2.attempt_at(client_a(), t);
    ASSERT_EQ(a1.lost, a2.lost);
    ASSERT_EQ(a1.state, a2.state);
  }
}

// The observer surface is pure: querying never changes subsequent draws.
TEST(ChannelModel, ViewOfNeverPerturbsDraws) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.7);
  ChannelModel quiet{spec, 23};
  ChannelModel queried{spec, 23};
  for (int i = 0; i < 2000; ++i) {
    const auto a1 = quiet.attempt_at(client_a(), Time::ms(9 * i));
    for (int q = 0; q < 3; ++q) (void)queried.view_of(client_a());
    const auto a2 = queried.attempt_at(client_a(), Time::ms(9 * i));
    ASSERT_EQ(a1.lost, a2.lost);
    ASSERT_EQ(a1.state, a2.state);
  }
}

// -- Gilbert-Elliott: the two-rung ladder ------------------------------------------

TEST(GilbertElliott, CorruptionSequenceIsDeterministic) {
  const ChannelSpec spec = ChannelSpec::two_state(0.1, 0.2, 0.001, 0.85);
  ChannelModel m1{spec, 7};
  ChannelModel m2{spec, 7};
  const net::Packet pkt = downlink_to(client_a());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(m1.corrupted(pkt, client_a(), Time::ms(10 * i)),
              m2.corrupted(pkt, client_a(), Time::ms(10 * i)));
  }
  EXPECT_EQ(m1.stats().losses, m2.stats().losses);
  EXPECT_EQ(m1.stats().worse_entries, m2.stats().worse_entries);
  EXPECT_GT(m1.stats().losses, 0u);
  EXPECT_GT(m1.stats().worse_entries, 0u);
}

TEST(GilbertElliott, LossesClusterInBadState) {
  // With rare entries into a long, lossy bad state, overall loss must sit
  // far above the good-state rate yet losses must arrive in bursts: more
  // clustered than independent drops at the same average rate.  One frame
  // per 20 ms tick.
  ChannelModel model{ChannelSpec::two_state(0.01, 0.05, 0.0, 0.9), 11};
  const net::Packet pkt = downlink_to(client_a());
  const int n = 20000;
  int losses = 0;
  int adjacent = 0;  // lost frame immediately following a lost frame
  bool prev = false;
  for (int i = 0; i < n; ++i) {
    const bool lost = model.corrupted(pkt, client_a(), Time::ms(20 * i));
    if (lost) {
      ++losses;
      if (prev) ++adjacent;
    }
    prev = lost;
  }
  const double rate = static_cast<double>(losses) / n;
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.5);
  // Independent losses would give adjacent/losses ~= rate; bursty losses
  // repeat far more often.
  EXPECT_GT(static_cast<double>(adjacent) / losses, 3.0 * rate);
}

TEST(GilbertElliott, PerClientChainsAreIndependent) {
  ChannelModel model{ChannelSpec::two_state(0.05, 0.05, 0.0, 1.0), 3};
  // Interleaved draws on two channels both make progress; the keying uses
  // the receiver for downlink and the source for uplink (AP receiver).
  const net::Packet down_a = downlink_to(client_a());
  net::Packet up_a = net::make_packet();
  up_a.src = client_a();
  up_a.dst = net::Ipv4Addr::octets(10, 0, 0, 1);
  int a_lost = 0;
  int b_lost = 0;
  for (int i = 0; i < 5000; ++i) {
    const Time t = Time::ms(20 * i);
    if (model.corrupted(down_a, client_a(), t)) ++a_lost;
    if (model.corrupted(downlink_to(client_b()), client_b(), t)) ++b_lost;
    // Uplink frame from client A advances the same chain as its downlink.
    model.corrupted(up_a, net::Ipv4Addr{}, t);
  }
  EXPECT_GT(a_lost, 0);
  EXPECT_GT(b_lost, 0);
  EXPECT_EQ(model.stats().attempts, 15000u);
}

// -- Composition with fault windows -------------------------------------------------

// Logs every frame addressed to it as delivered (true) or lost (false).
struct LoggingStation : net::WirelessStation {
  std::vector<bool> log;
  bool listening() const override { return true; }
  void deliver(net::Packet, sim::Duration) override { log.push_back(true); }
  void missed(const net::Packet&, sim::Duration) override {
    log.push_back(false);
  }
};

struct Outcome {
  std::vector<bool> a_down, b_down, ap_up;  // ap_up: client A's uplink
  std::uint64_t faded = 0;
};

// A lossy ladder channel on a three-station medium, optionally with a
// DeepFade window on client A over [1 s, 2 s).  Every 10 ms the AP sends
// one frame to each client and client A sends one uplink frame.
Outcome run_ladder(bool fade_a) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  sim::Simulator sim{1};
  net::WirelessMedium medium{sim};
  LoggingStation ap_radio, a, b;
  const auto ap_id = medium.attach_access_point(ap_radio);
  const auto a_id = medium.attach_station(a, client_a());
  medium.attach_station(b, client_b());
  ChannelModel channel{ChannelSpec::ladder(3, 0.8), 42};
  medium.set_loss_model(&channel);

  fault::FaultSpec spec;
  if (fade_a) spec.fade(client_a(), Time::ms(1000), Time::ms(1000));
  fault::FaultPlan plan{sim, spec};
  plan.attach_medium(medium);
  plan.arm();

  for (int t = 0; t < 3000; t += 10) {
    sim.at(Time::ms(t), [&] {
      medium.transmit(ap_id, downlink_to(client_a()));
      medium.transmit(ap_id, downlink_to(client_b()));
      net::Packet up = net::make_packet();
      up.src = client_a();
      up.dst = net::Ipv4Addr::octets(10, 0, 0, 1);
      up.payload = 500;
      medium.transmit(a_id, std::move(up));
    });
  }
  sim.run_until(Time::ms(3500));
  return Outcome{a.log, b.log, ap_radio.log, medium.frames_faded()};
}

// A deep fade on client A composes with the channel ladder: every frame to
// and from A inside the window is lost, and client B's loss sequence is
// identical to the run without the fade (a fade draws nothing).
TEST(ChannelFaultComposition, FadeOnOneClientLeavesOthersUntouched) {
  const Outcome clean = run_ladder(false);
  const Outcome faded = run_ladder(true);

  ASSERT_EQ(clean.b_down.size(), 300u);
  EXPECT_EQ(faded.b_down, clean.b_down);
  EXPECT_EQ(clean.faded, 0u);

  // Frames queued at 1000..1990 ms land inside the window (each is a few
  // ms on air): 100 rounds, in both of A's directions.
  ASSERT_EQ(faded.a_down.size(), 300u);
  ASSERT_EQ(faded.ap_up.size(), 300u);
  for (std::size_t i = 100; i < 200; ++i) {
    EXPECT_FALSE(faded.a_down[i]) << "downlink round " << i;
    EXPECT_FALSE(faded.ap_up[i]) << "uplink round " << i;
  }
  EXPECT_EQ(faded.faded, 200u);
  // Before the window, A's draws are untouched too.
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(faded.a_down[i], clean.a_down[i]) << "downlink round " << i;
    EXPECT_EQ(faded.ap_up[i], clean.ap_up[i]) << "uplink round " << i;
  }
  // The ladder itself lost frames outside the fade.
  int ladder_losses = 0;
  for (const bool ok : clean.b_down) ladder_losses += ok ? 0 : 1;
  EXPECT_GT(ladder_losses, 0);
}

}  // namespace
}  // namespace pp::channel
