#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/network.hpp"
#include "net/transfer.hpp"
#include "net/tunnel.hpp"
#include "util/event_queue.hpp"

namespace autolearn::net {
namespace {

util::Rng rng() { return util::Rng(1234); }

TEST(LinkSpec, Validation) {
  EXPECT_NO_THROW(LinkSpec{}.validate());
  LinkSpec bad;
  bad.latency_s = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = LinkSpec{};
  bad.bandwidth_bps = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = LinkSpec{};
  bad.loss_prob = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = LinkSpec{};
  bad.jitter_s = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Link, LatencyWithoutJitterIsDeterministic) {
  Link l(LinkSpec{0.01, 0.0, 1e6, 0.0});
  auto r = rng();
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(l.sample_latency(r), 0.01);
}

TEST(Link, JitterStaysNonNegative) {
  Link l(LinkSpec{0.001, 0.01, 1e6, 0.0});
  auto r = rng();
  for (int i = 0; i < 1000; ++i) EXPECT_GE(l.sample_latency(r), 0.0);
}

TEST(Link, TransferTimeScalesWithBytes) {
  Link l(LinkSpec{0.0, 0.0, 1e6, 0.0});
  auto r = rng();
  EXPECT_NEAR(l.transfer_time(1'000'000, r), 1.0, 1e-9);
  EXPECT_NEAR(l.transfer_time(500'000, r), 0.5, 1e-9);
}

TEST(Link, DropsFollowLossProb) {
  Link never(LinkSpec{0, 0, 1e6, 0.0});
  Link always(LinkSpec{0, 0, 1e6, 1.0});
  auto r = rng();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.drops(r));
    EXPECT_TRUE(always.drops(r));
  }
}

TEST(Link, ProfilesAreOrderedByLatency) {
  EXPECT_LT(Link::datacenter().latency_s, Link::edge_wifi().latency_s);
  EXPECT_LT(Link::edge_wifi().latency_s, Link::campus_to_cloud().latency_s);
  EXPECT_DOUBLE_EQ(Link::fabric_managed(0.05).latency_s, 0.05);
}

TEST(Network, AddHostIdempotent) {
  Network n;
  n.add_host("a");
  n.add_host("a");
  EXPECT_TRUE(n.has_host("a"));
  EXPECT_EQ(n.hosts().size(), 1u);
  EXPECT_THROW(n.add_host(""), std::invalid_argument);
}

TEST(Network, LinkRequiresHosts) {
  Network n;
  n.add_host("a");
  EXPECT_THROW(n.add_link("a", "b", LinkSpec{}), std::invalid_argument);
  EXPECT_THROW(n.add_link("a", "a", LinkSpec{}), std::invalid_argument);
}

TEST(Network, DirectRoute) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.01, 0, 1e6, 0});
  const auto r = n.route("a", "b");
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b"}));
}

TEST(Network, RouteToSelf) {
  Network n;
  n.add_host("a");
  const auto r = n.route("a", "a");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->size(), 1u);
  auto g = rng();
  EXPECT_DOUBLE_EQ(n.sample_latency("a", "a", g), 0.0);
}

TEST(Network, MultiHopRouteFound) {
  Network n;
  for (const char* h : {"car", "gw", "cloud"}) n.add_host(h);
  n.add_duplex("car", "gw", Link::edge_wifi());
  n.add_duplex("gw", "cloud", Link::campus_to_cloud());
  const auto r = n.route("car", "cloud");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->size(), 3u);
  EXPECT_NEAR(n.base_latency("car", "cloud"), 0.025, 1e-9);
}

TEST(Network, UnreachableIsEmpty) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  EXPECT_FALSE(n.route("a", "b"));
  auto g = rng();
  EXPECT_THROW(n.sample_latency("a", "b", g), std::runtime_error);
}

TEST(Network, FewestHopsPreferred) {
  Network n;
  for (const char* h : {"a", "b", "c", "d"}) n.add_host(h);
  // a->d direct (slow) vs a->b->c->d (each fast).
  n.add_link("a", "d", LinkSpec{0.5, 0, 1e6, 0});
  n.add_link("a", "b", LinkSpec{0.001, 0, 1e6, 0});
  n.add_link("b", "c", LinkSpec{0.001, 0, 1e6, 0});
  n.add_link("c", "d", LinkSpec{0.001, 0, 1e6, 0});
  const auto r = n.route("a", "d");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->size(), 2u);  // fewest hops wins even though slower
}

TEST(Network, TieBrokenByLatency) {
  Network n;
  for (const char* h : {"a", "b1", "b2", "c"}) n.add_host(h);
  n.add_link("a", "b1", LinkSpec{0.010, 0, 1e6, 0});
  n.add_link("b1", "c", LinkSpec{0.010, 0, 1e6, 0});
  n.add_link("a", "b2", LinkSpec{0.001, 0, 1e6, 0});
  n.add_link("b2", "c", LinkSpec{0.001, 0, 1e6, 0});
  const auto r = n.route("a", "c");
  ASSERT_TRUE(r);
  EXPECT_EQ((*r)[1], "b2");
}

TEST(Network, RttIsForwardPlusReverse) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_link("a", "b", LinkSpec{0.010, 0, 1e6, 0});
  n.add_link("b", "a", LinkSpec{0.030, 0, 1e6, 0});
  auto g = rng();
  EXPECT_NEAR(n.sample_rtt("a", "b", g), 0.040, 1e-9);
}

TEST(Network, TransferTimeUsesBottleneckBandwidth) {
  Network n;
  for (const char* h : {"a", "b", "c"}) n.add_host(h);
  n.add_link("a", "b", LinkSpec{0.0, 0, 10e6, 0});
  n.add_link("b", "c", LinkSpec{0.0, 0, 1e6, 0});
  auto g = rng();
  EXPECT_NEAR(n.transfer_time("a", "c", 1'000'000, g), 1.0, 1e-9);
}

TEST(TransferManager, CompletesAndReportsDuration) {
  Network n;
  n.add_host("pi");
  n.add_host("gpu");
  n.add_duplex("pi", "gpu", LinkSpec{0.01, 0, 1e6, 0});
  util::EventQueue q;
  TransferManager tm(n, q, rng());
  bool done = false;
  const auto id = tm.start("pi", "gpu", 2'000'000,
                           [&](const TransferResult& r) {
                             done = true;
                             EXPECT_EQ(r.status, TransferStatus::Done);
                             EXPECT_NEAR(r.duration(), 2.01, 1e-6);
                           });
  EXPECT_EQ(tm.in_flight(), 1u);
  q.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(tm.in_flight(), 0u);
  EXPECT_EQ(tm.completed(), 1u);
  EXPECT_EQ(tm.result(id).attempts, 1);
}

TEST(TransferManager, RetriesOnLossyLink) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.001, 0, 1e6, 0.4});
  util::EventQueue q;
  TransferManager tm(n, q, rng(), fault::RetryPolicy::immediate(51));
  int completions = 0;
  for (int i = 0; i < 20; ++i) {
    tm.start("a", "b", 1000, [&](const TransferResult& r) {
      EXPECT_EQ(r.status, TransferStatus::Done);
      ++completions;
    });
  }
  q.run();
  EXPECT_EQ(completions, 20);
  EXPECT_EQ(tm.failed(), 0u);
}

TEST(TransferManager, FailsAfterRetriesExhausted) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.001, 0, 1e6, 1.0});  // always drops
  util::EventQueue q;
  TransferManager tm(n, q, rng(), fault::RetryPolicy::immediate(3));
  TransferStatus status = TransferStatus::InFlight;
  int attempts = 0;
  tm.start("a", "b", 1000, [&](const TransferResult& r) {
    status = r.status;
    attempts = r.attempts;
  });
  q.run();
  EXPECT_EQ(status, TransferStatus::Failed);
  EXPECT_EQ(attempts, 3);  // initial + 2 retries
  EXPECT_EQ(tm.failed(), 1u);
}

TEST(TransferManager, UnknownIdThrows) {
  Network n;
  util::EventQueue q;
  TransferManager tm(n, q, rng());
  EXPECT_THROW(tm.result(99), std::invalid_argument);
}

TEST(TransferManager, NoRouteThrowsImmediately) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  util::EventQueue q;
  TransferManager tm(n, q, rng());
  EXPECT_THROW(tm.start("a", "b", 10), std::runtime_error);
}

TEST(TransferManager, ConcurrentTransfersIndependent) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.0, 0, 1e6, 0});
  util::EventQueue q;
  TransferManager tm(n, q, rng());
  std::vector<double> finish_times;
  tm.start("a", "b", 1'000'000,
           [&](const TransferResult& r) { finish_times.push_back(r.finished_at); });
  tm.start("a", "b", 3'000'000,
           [&](const TransferResult& r) { finish_times.push_back(r.finished_at); });
  q.run();
  ASSERT_EQ(finish_times.size(), 2u);
  EXPECT_NEAR(finish_times[0], 1.0, 1e-9);
  EXPECT_NEAR(finish_times[1], 3.0, 1e-9);
}

// --- fault overlays ---------------------------------------------------------

TEST(Network, UnreachableErrorCarriesEndpoints) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  auto g = rng();
  try {
    n.sample_latency("a", "b", g);
    FAIL() << "expected UnreachableError";
  } catch (const UnreachableError& e) {
    EXPECT_EQ(e.from(), "a");
    EXPECT_EQ(e.to(), "b");
    EXPECT_NE(std::string(e.what()).find("a"), std::string::npos);
  }
}

TEST(Network, LinkFaultValidation) {
  EXPECT_NO_THROW(LinkFault{}.validate());
  LinkFault bad;
  bad.latency_mult = 0.5;  // faults cannot speed a link up
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = LinkFault{};
  bad.loss_add = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = LinkFault{};
  bad.bandwidth_mult = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = LinkFault{};
  bad.bandwidth_mult = 2.0;  // nor widen it
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Network, DegradeLinkScalesLatencyAndBandwidth) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.01, 0, 1e6, 0});
  LinkFault fault;
  fault.latency_mult = 3.0;
  fault.bandwidth_mult = 0.5;
  n.degrade_duplex("a", "b", fault);
  EXPECT_NEAR(n.base_latency("a", "b"), 0.03, 1e-9);
  auto g = rng();
  // 1 MB at 0.5 MB/s effective plus the inflated latency.
  EXPECT_NEAR(n.transfer_time("a", "b", 1'000'000, g), 2.03, 1e-9);
  n.clear_degradation_duplex("a", "b");
  EXPECT_NEAR(n.base_latency("a", "b"), 0.01, 1e-9);
}

TEST(Network, DegradeLinkAddsLoss) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.001, 0, 1e6, 0});  // lossless
  auto g = rng();
  EXPECT_FALSE(n.drops("a", "b", g));
  LinkFault fault;
  fault.loss_add = 1.0;
  n.degrade_link("a", "b", fault);
  EXPECT_TRUE(n.drops("a", "b", g));
  EXPECT_FALSE(n.drops("b", "a", g));  // one direction only
  n.clear_degradation("a", "b");
  EXPECT_FALSE(n.drops("a", "b", g));
}

TEST(Network, DegradeUnknownLinkThrows) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  EXPECT_THROW(n.degrade_link("a", "b", LinkFault{}), std::invalid_argument);
}

TEST(Network, PartitionedHostVanishesFromRouting) {
  Network n;
  for (const char* h : {"car", "gw", "cloud"}) n.add_host(h);
  n.add_duplex("car", "gw", Link::edge_wifi());
  n.add_duplex("gw", "cloud", Link::campus_to_cloud());
  ASSERT_TRUE(n.route("car", "cloud"));

  n.partition_host("gw");  // intermediate hop goes dark
  EXPECT_TRUE(n.partitioned("gw"));
  EXPECT_FALSE(n.route("car", "cloud"));
  n.heal_host("gw");
  EXPECT_TRUE(n.route("car", "cloud"));

  n.partition_host("cloud");  // endpoint goes dark
  EXPECT_FALSE(n.route("car", "cloud"));
  EXPECT_TRUE(n.route("car", "gw"));
  n.heal_host("cloud");
  EXPECT_TRUE(n.route("car", "cloud"));
  EXPECT_THROW(n.partition_host("ghost"), std::invalid_argument);
}

TEST(TransferManager, RecordsAttemptStartTimes) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.001, 0, 1e6, 1.0});  // always drops
  util::EventQueue q;
  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_s = 1.0;
  policy.multiplier = 2.0;
  policy.jitter = fault::RetryPolicy::Jitter::None;
  TransferManager tm(n, q, rng(), policy);
  const auto id = tm.start("a", "b", 1000);
  q.run();
  const TransferResult& r = tm.result(id);
  ASSERT_EQ(r.attempt_starts.size(), 3u);
  EXPECT_DOUBLE_EQ(r.attempt_starts[0], 0.0);
  // Gap = wasted half-transfer + deterministic backoff (1 s then 2 s).
  EXPECT_GT(r.attempt_starts[1] - r.attempt_starts[0], 1.0);
  EXPECT_GT(r.attempt_starts[2] - r.attempt_starts[1], 2.0);
}

TEST(TransferManager, DefaultPolicyIsThreeImmediateAttempts) {
  // Two retries after the first attempt, back-to-back.
  Network n;
  util::EventQueue q;
  TransferManager tm(n, q, rng());
  EXPECT_EQ(tm.policy().max_attempts, 3);
  EXPECT_EQ(tm.policy().jitter, fault::RetryPolicy::Jitter::None);
  EXPECT_DOUBLE_EQ(tm.policy().base_delay_s, 0.0);
  EXPECT_DOUBLE_EQ(tm.policy().max_delay_s, 0.0);
}

TEST(SshTunnel, OpenHandshakeTakesThreeRtts) {
  Network n;
  n.add_host("laptop");
  n.add_host("pi");
  n.add_duplex("laptop", "pi", LinkSpec{0.01, 0, 1e6, 0});
  util::EventQueue q;
  SshTunnel tunnel(n, q, rng(), "laptop", "pi", 8888);
  EXPECT_EQ(tunnel.state(), TunnelState::Closed);
  bool open = false;
  tunnel.open([&] { open = true; });
  EXPECT_EQ(tunnel.state(), TunnelState::Opening);
  q.run();
  EXPECT_TRUE(open);
  EXPECT_EQ(tunnel.state(), TunnelState::Open);
  EXPECT_NEAR(tunnel.opened_at(), 3 * 0.02, 1e-9);  // 3 x RTT(20 ms)
  EXPECT_EQ(tunnel.remote_port(), 8888);
}

TEST(SshTunnel, RequestModelsRoundTrip) {
  Network n;
  n.add_host("laptop");
  n.add_host("pi");
  n.add_duplex("laptop", "pi", LinkSpec{0.005, 0, 1e6, 0});
  util::EventQueue q;
  SshTunnel tunnel(n, q, rng(), "laptop", "pi");
  tunnel.open();
  q.run();
  bool done = false;
  // 1 KB request, 1 MB notebook page back.
  const double d = tunnel.request(1000, 1'000'000, [&] { done = true; });
  EXPECT_NEAR(d, 0.005 + 0.001 + 0.005 + 1.0, 1e-9);
  q.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(tunnel.requests_served(), 1u);
}

TEST(SshTunnel, LifecycleErrors) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  util::EventQueue q;
  SshTunnel unrouted(n, q, rng(), "a", "b");
  EXPECT_THROW(unrouted.open(), std::runtime_error);  // no route

  n.add_duplex("a", "b", LinkSpec{0.001, 0, 1e6, 0});
  SshTunnel tunnel(n, q, rng(), "a", "b");
  EXPECT_THROW(tunnel.request(1, 1), std::logic_error);  // not open
  tunnel.open();
  EXPECT_THROW(tunnel.open(), std::logic_error);  // already opening
  q.run();
  EXPECT_EQ(tunnel.state(), TunnelState::Open);
  EXPECT_THROW(SshTunnel(n, q, rng(), "a", "b", 0), std::invalid_argument);
}

TEST(SshTunnel, BreakAndReopen) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.001, 0, 1e6, 0});
  util::EventQueue q;
  SshTunnel tunnel(n, q, rng(), "a", "b");
  tunnel.open();
  q.run();
  tunnel.break_tunnel();
  EXPECT_EQ(tunnel.state(), TunnelState::Broken);
  EXPECT_THROW(tunnel.request(1, 1), std::logic_error);
  tunnel.close();
  bool reopened = false;
  tunnel.open([&] { reopened = true; });
  q.run();
  EXPECT_TRUE(reopened);
}

TEST(SshTunnel, LossyLinkResetsConnection) {
  Network n;
  n.add_host("a");
  n.add_host("b");
  n.add_duplex("a", "b", LinkSpec{0.001, 0, 1e6, 1.0});  // always drops
  util::EventQueue q;
  SshTunnel tunnel(n, q, rng(), "a", "b");
  tunnel.open();
  q.run();
  ASSERT_EQ(tunnel.state(), TunnelState::Open);
  EXPECT_THROW(tunnel.request(100, 100), std::runtime_error);
  EXPECT_EQ(tunnel.state(), TunnelState::Broken);
}

}  // namespace
}  // namespace autolearn::net
