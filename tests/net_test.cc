#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/network.h"
#include "sim/engine.h"

namespace pstk::net {
namespace {

serde::Buffer Payload(const std::string& s) {
  return serde::Buffer(s.begin(), s.end());
}

std::string AsString(const buf::Bytes& b) { return b.ToString(); }

// --------------------------------------------------------------------------
// Fabric cost model
// --------------------------------------------------------------------------

TEST(FabricTest, TransportPresetsOrdering) {
  const auto eth = TransportParams::Ethernet10G();
  const auto ipoib = TransportParams::IPoIB();
  const auto rdma = TransportParams::RdmaFdr();
  EXPECT_GT(eth.base_latency, ipoib.base_latency);
  EXPECT_GT(ipoib.base_latency, rdma.base_latency);
  EXPECT_LT(eth.bandwidth, ipoib.bandwidth);
  EXPECT_LT(ipoib.bandwidth, rdma.bandwidth);
  EXPECT_GT(eth.per_message_cpu, rdma.per_message_cpu);
  EXPECT_TRUE(rdma.rdma);
  EXPECT_FALSE(eth.rdma);
}

TEST(FabricTest, SmallMessageDominatedByLatency) {
  Fabric fabric(2, TransportParams::RdmaFdr());
  const auto t = fabric.Transfer(0, 1, 8, 0.0);
  EXPECT_GT(t.arrival, Micros(1.0));
  EXPECT_LT(t.arrival, Micros(10.0));
}

TEST(FabricTest, LargeMessageDominatedByBandwidth) {
  Fabric fabric(2, TransportParams::RdmaFdr());
  const Bytes size = 64 * kMiB;
  const auto t = fabric.Transfer(0, 1, size, 0.0);
  const double expected = static_cast<double>(size) / Gbps(54);
  EXPECT_NEAR(t.arrival, expected, expected * 0.2);
}

TEST(FabricTest, NicContentionSerializes) {
  Fabric fabric(3, TransportParams::RdmaFdr());
  const Bytes size = 64 * kMiB;
  // Two senders target the same receiver at the same instant: the second
  // transfer queues behind the first on the receiver's NIC.
  const auto a = fabric.Transfer(0, 2, size, 0.0);
  const auto b = fabric.Transfer(1, 2, size, 0.0);
  EXPECT_GT(b.arrival, a.arrival * 1.8);
}

TEST(FabricTest, IntraNodeBypassesNic) {
  Fabric fabric(2, TransportParams::Ethernet10G());
  const auto local = fabric.Transfer(0, 0, kMiB, 0.0);
  const auto remote = fabric.Transfer(0, 1, kMiB, 0.0);
  EXPECT_LT(local.arrival, remote.arrival);
  // Only the remote transfer consumes NIC time.
  const double wire = static_cast<double>(kMiB) / Gbps(9.4);
  EXPECT_NEAR(fabric.tx_busy(0), wire, wire * 0.01);
}

TEST(FabricTest, SocketsChargeMoreCpuThanRdma) {
  Fabric eth(2, TransportParams::Ethernet10G());
  Fabric ib(2, TransportParams::RdmaFdr());
  const auto t_eth = eth.Transfer(0, 1, kMiB, 0.0);
  const auto t_ib = ib.Transfer(0, 1, kMiB, 0.0);
  EXPECT_GT(t_eth.sender_cpu, 50 * t_ib.sender_cpu);
}

TEST(FabricTest, RdmaWriteHasNoReceiverCpu) {
  Fabric fabric(2, TransportParams::RdmaFdr());
  const auto t = fabric.RdmaWrite(0, 1, kMiB, 0.0);
  EXPECT_DOUBLE_EQ(t.receiver_cpu, 0.0);
}

TEST(FabricTest, AccountsTraffic) {
  Fabric fabric(2, TransportParams::RdmaFdr());
  fabric.Transfer(0, 1, 100, 0.0);
  fabric.Transfer(1, 0, 200, 0.0);
  EXPECT_EQ(fabric.messages_sent(), 2u);
  EXPECT_EQ(fabric.bytes_sent(), 300u);
}

// --------------------------------------------------------------------------
// Network / Endpoint
// --------------------------------------------------------------------------

struct NetFixture {
  sim::Engine engine;
  std::shared_ptr<Fabric> fabric =
      std::make_shared<Fabric>(4, TransportParams::RdmaFdr());
  Network network{engine, fabric};
};

TEST(NetworkTest, SendRecvDeliversPayload) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  std::string received;
  SimTime recv_time = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.Send(ctx, 1, 7, Payload("hello"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    Message m = b.Recv(ctx, 0, 7);
    received = AsString(m.payload);
    recv_time = ctx.now();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_EQ(received, "hello");
  EXPECT_GT(recv_time, 0.0);
}

TEST(NetworkTest, TagMatchingIsSelective) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  std::vector<std::string> order;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.Send(ctx, 1, /*tag=*/1, Payload("first"));
    a.Send(ctx, 1, /*tag=*/2, Payload("second"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    // Receive tag 2 first even though tag 1 arrived earlier.
    order.push_back(AsString(b.Recv(ctx, 0, 2).payload));
    order.push_back(AsString(b.Recv(ctx, 0, 1).payload));
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "second");
  EXPECT_EQ(order[1], "first");
}

TEST(NetworkTest, WildcardRecvTakesEarliestArrival) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& c = f.network.CreateEndpoint(1, 1);
  auto& b = f.network.CreateEndpoint(2, 2);
  std::vector<int> sources;
  f.engine.Spawn("s1", [&](sim::Context& ctx) {
    ctx.SleepUntil(1.0);
    a.Send(ctx, 2, 0, Payload("late"));
  });
  f.engine.Spawn("s2", [&](sim::Context& ctx) {
    c.Send(ctx, 2, 0, Payload("early"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    ctx.SleepUntil(5.0);  // both already arrived
    sources.push_back(b.Recv(ctx, kAnySource, kAnyTag).src);
    sources.push_back(b.Recv(ctx, kAnySource, kAnyTag).src);
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], 1);  // "early" sender
  EXPECT_EQ(sources[1], 0);
}

TEST(NetworkTest, RecvBlocksUntilArrival) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  SimTime recv_time = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    ctx.SleepUntil(3.0);
    a.Send(ctx, 1, 0, Payload("x"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    b.Recv(ctx, 0, 0);
    recv_time = ctx.now();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_GE(recv_time, 3.0);
}

TEST(NetworkTest, EagerSendDoesNotWaitForReceiver) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  SimTime send_done = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.Send(ctx, 1, 0, Payload("small"));
    send_done = ctx.now();
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    ctx.SleepUntil(100.0);  // receiver is very late
    b.Recv(ctx, 0, 0);
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_LT(send_done, 1.0);
}

TEST(NetworkTest, RendezvousSendWaitsForReceiver) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  SimTime send_done = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    serde::Buffer big(2 * kMiB, 0xAB);  // above the 64 KiB eager threshold
    a.Send(ctx, 1, 0, std::move(big));
    send_done = ctx.now();
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    ctx.SleepUntil(50.0);
    b.Recv(ctx, 0, 0);
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_GE(send_done, 50.0);
}

TEST(NetworkTest, ModeledSizeOverridesPayloadSize) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  SimTime arrival_small = 0;
  SimTime arrival_big = 0;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.SendAsync(ctx, 1, 1, Payload("x"));                     // 1 byte
    a.SendAsync(ctx, 1, 2, Payload("x"), /*modeled=*/kGiB);   // "1 GiB"
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    arrival_small = b.Recv(ctx, 0, 1).arrival;
    arrival_big = b.Recv(ctx, 0, 2).arrival;
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_GT(arrival_big, arrival_small + 0.1);  // ~0.16 s at 54 Gbit/s
}

TEST(NetworkTest, TryRecvAndProbe) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  bool empty_probe = true;
  bool later_probe = false;
  bool got = false;
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    empty_probe = b.Probe(ctx);
    ctx.SleepUntil(10.0);
    later_probe = b.Probe(ctx, 0, 5);
    got = b.TryRecv(ctx, 0, 5).has_value();
  });
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    ctx.SleepUntil(1.0);
    a.Send(ctx, 1, 5, Payload("y"));
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_FALSE(empty_probe);
  EXPECT_TRUE(later_probe);
  EXPECT_TRUE(got);
}

TEST(NetworkTest, ManyMessagesFifoPerPair) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  std::vector<std::string> order;
  const int n = 50;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    for (int i = 0; i < n; ++i) {
      a.Send(ctx, 1, 0, Payload(std::to_string(i)));
    }
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    for (int i = 0; i < n; ++i) {
      order.push_back(AsString(b.Recv(ctx, 0, 0).payload));
    }
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(order[i], std::to_string(i));
}

// Two processes share sender endpoint 0 on the receiver's node (no NIC
// queue, so no FIFO): the first sends at t=5, the second at t=0. The second
// message is sent later (higher seq) but arrives earlier.
void SendOutOfOrder(NetFixture& f) {
  auto& a = f.network.CreateEndpoint(0, 0);
  f.network.CreateEndpoint(1, 0);
  f.engine.Spawn("late", [&](sim::Context& ctx) {
    ctx.Compute(5.0);  // never yields: this send is deposited first
    a.SendAsync(ctx, 1, /*tag=*/3, Payload("sent-first"));
  });
  f.engine.Spawn("early", [&](sim::Context& ctx) {
    a.SendAsync(ctx, 1, /*tag=*/3, Payload("sent-second"), /*modeled=*/64);
  });
}

TEST(NetworkTest, SpecificRecvTakesEarliestArrivalNotEarliestSend) {
  NetFixture f;
  SendOutOfOrder(f);
  std::vector<std::string> order;
  std::vector<std::uint64_t> seqs;
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    ctx.SleepUntil(10.0);  // both arrived
    auto& b = f.network.endpoint(1);
    for (int i = 0; i < 2; ++i) {
      Message m = b.Recv(ctx, /*src=*/0, /*tag=*/3);
      order.push_back(AsString(m.payload));
      seqs.push_back(m.seq);
    }
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "sent-second");
  EXPECT_EQ(order[1], "sent-first");
  EXPECT_GT(seqs[0], seqs[1]);
}

TEST(NetworkTest, PendingListsSendOrderAfterOutOfOrderArrivals) {
  NetFixture f;
  SendOutOfOrder(f);
  ASSERT_TRUE(f.engine.Run().status.ok());
  const auto pending = f.network.endpoint(1).Pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].bytes, std::string("sent-first").size());
  EXPECT_EQ(pending[1].bytes, 64u);
}

// Differential check of the matching order: random traffic from several
// processes (sharing sender endpoints, mixed sizes, intra- and inter-node)
// is drained by random wildcard / by-source / by-tag / exact receives, and
// every delivery must equal what a brute-force earliest-(arrival, seq)
// scan over the same messages picks.
TEST(NetworkTest, MatchingOrderEqualsBruteForceReference) {
  constexpr int kSenders = 4;       // endpoints 0..3, one per node
  constexpr int kProcesses = 7;     // processes share sender endpoints
  constexpr int kSendsPerProcess = 50;
  constexpr int kTags = 3;
  constexpr int kReceiver = kSenders;
  for (std::uint64_t seed : {1u, 7u, 2016u}) {
    NetFixture f;
    for (int e = 0; e < kSenders; ++e) f.network.CreateEndpoint(e, e);
    auto& rx = f.network.CreateEndpoint(kReceiver, 0);

    struct Sent {
      int src;
      int tag;
    };
    std::vector<Sent> sent;  // by message id (payload)
    for (int p = 0; p < kProcesses; ++p) {
      f.engine.Spawn("sender" + std::to_string(p), [&, p](sim::Context& ctx) {
        std::mt19937_64 rng(seed * 131 + static_cast<std::uint64_t>(p));
        auto& ep = f.network.endpoint(p % kSenders);
        const Bytes sizes[] = {8, 8, kKiB, 64 * kKiB, 4 * kMiB};
        for (int i = 0; i < kSendsPerProcess; ++i) {
          switch (rng() % 4) {
            case 0: break;  // back-to-back: equal-arrival ties
            case 1: ctx.Compute(Micros(static_cast<double>(rng() % 50))); break;
            case 2: ctx.Yield(); break;
            case 3: ctx.SleepFor(Micros(static_cast<double>(rng() % 50))); break;
          }
          const int tag = static_cast<int>(rng() % kTags);
          const int id = static_cast<int>(sent.size());
          sent.push_back(Sent{ep.id(), tag});
          ep.SendAsync(ctx, kReceiver, tag, Payload(std::to_string(id)),
                       sizes[rng() % std::size(sizes)]);
        }
      });
    }

    struct Request {
      int src;
      int tag;
    };
    std::vector<Request> requests;
    std::vector<Message> delivered;
    f.engine.Spawn("receiver", [&](sim::Context& ctx) {
      ctx.SleepUntil(100.0);  // every message has arrived
      std::mt19937_64 rng(seed);
      // Remaining count per (src, tag), so every request has a match.
      std::vector<std::vector<int>> left(kSenders, std::vector<int>(kTags));
      for (const Sent& s : sent) ++left[s.src][s.tag];
      for (std::size_t n = 0; n < sent.size(); ++n) {
        Request req{kAnySource, kAnyTag};
        for (;;) {
          const int src = static_cast<int>(rng() % kSenders);
          const int tag = static_cast<int>(rng() % kTags);
          switch (rng() % 4) {
            case 0: req = {kAnySource, kAnyTag}; break;
            case 1: req = {src, kAnyTag}; break;
            case 2: req = {kAnySource, tag}; break;
            case 3: req = {src, tag}; break;
          }
          int matches = 0;
          for (int s = 0; s < kSenders; ++s) {
            for (int t = 0; t < kTags; ++t) {
              if ((req.src == kAnySource || req.src == s) &&
                  (req.tag == kAnyTag || req.tag == t)) {
                matches += left[s][t];
              }
            }
          }
          if (matches > 0) break;
        }
        Message m;
        switch (n % 3) {
          case 0: m = rx.Recv(ctx, req.src, req.tag); break;
          case 1: m = *rx.TryRecv(ctx, req.src, req.tag); break;
          case 2:
            m = *rx.RecvWithTimeout(ctx, ctx.now() + 1.0, req.src, req.tag);
            break;
        }
        --left[m.src][m.tag];
        requests.push_back(req);
        delivered.push_back(std::move(m));
      }
    });
    ASSERT_TRUE(f.engine.Run().status.ok());
    ASSERT_EQ(delivered.size(), sent.size());
    EXPECT_EQ(rx.inbox_size(), 0u);

    // Reference: the full inbox as it stood when draining began, matched by
    // a linear earliest-(arrival, seq) scan.
    std::vector<const Message*> inbox;
    for (const Message& m : delivered) inbox.push_back(&m);
    for (std::size_t n = 0; n < requests.size(); ++n) {
      const Request& req = requests[n];
      std::size_t best = inbox.size();
      for (std::size_t i = 0; i < inbox.size(); ++i) {
        const Message& m = *inbox[i];
        if (req.src != kAnySource && m.src != req.src) continue;
        if (req.tag != kAnyTag && m.tag != req.tag) continue;
        if (best == inbox.size() || m.arrival < inbox[best]->arrival ||
            (m.arrival == inbox[best]->arrival && m.seq < inbox[best]->seq)) {
          best = i;
        }
      }
      ASSERT_LT(best, inbox.size()) << "seed " << seed << " receive " << n;
      ASSERT_EQ(inbox[best], &delivered[n])
          << "seed " << seed << " receive " << n << " got seq "
          << delivered[n].seq << ", reference seq " << inbox[best]->seq;
      inbox.erase(inbox.begin() + static_cast<std::ptrdiff_t>(best));
    }
    // The traffic really was out of order: some later send arrived first.
    bool inverted = false;
    for (const Message& a : delivered) {
      for (const Message& b : delivered) {
        inverted = inverted || (a.seq < b.seq && a.arrival > b.arrival);
      }
    }
    EXPECT_TRUE(inverted) << "seed " << seed;
    // Each payload id names the (src, tag) it was sent with.
    for (const Message& m : delivered) {
      const auto id = static_cast<std::size_t>(std::stoi(AsString(m.payload)));
      EXPECT_EQ(sent[id].src, m.src);
      EXPECT_EQ(sent[id].tag, m.tag);
    }
  }
}

}  // namespace
}  // namespace pstk::net

namespace pstk::net {
namespace {

TEST(NetworkTest, RecvWithTimeoutReturnsMessage) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  bool got = false;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    ctx.SleepUntil(1.0);
    a.Send(ctx, 1, 0, Payload("hi"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    auto m = b.RecvWithTimeout(ctx, /*deadline=*/5.0);
    got = m.has_value();
    EXPECT_LT(ctx.now(), 2.0);  // woke on arrival, not at the deadline
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_TRUE(got);
}

TEST(NetworkTest, RecvWithTimeoutExpires) {
  NetFixture f;
  f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  bool got = true;
  SimTime when = 0;
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    auto m = b.RecvWithTimeout(ctx, 3.0);
    got = m.has_value();
    when = ctx.now();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_FALSE(got);
  EXPECT_DOUBLE_EQ(when, 3.0);
}

TEST(NetworkTest, RecvWithTimeoutIgnoresNonMatching) {
  NetFixture f;
  auto& a = f.network.CreateEndpoint(0, 0);
  auto& b = f.network.CreateEndpoint(1, 1);
  bool got = true;
  f.engine.Spawn("sender", [&](sim::Context& ctx) {
    a.Send(ctx, 1, /*tag=*/7, Payload("wrong tag"));
  });
  f.engine.Spawn("receiver", [&](sim::Context& ctx) {
    auto m = b.RecvWithTimeout(ctx, 2.0, kAnySource, /*tag=*/9);
    got = m.has_value();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_FALSE(got);
}

// --------------------------------------------------------------------------
// Shard lookahead derivation (conservative PDES horizon from the fabric)
// --------------------------------------------------------------------------

TEST(FabricTest, MinLatencyDistinguishesIntraAndInterNode) {
  Fabric fabric(4, TransportParams::RdmaFdr());
  EXPECT_DOUBLE_EQ(fabric.MinLatency(2, 2),
                   TransportParams::SharedMemory().base_latency);
  EXPECT_DOUBLE_EQ(fabric.MinLatency(0, 3),
                   TransportParams::RdmaFdr().base_latency);
  EXPECT_DOUBLE_EQ(fabric.MinLatency(3, 0), fabric.MinLatency(0, 3));
  EXPECT_GT(fabric.MinLatency(0, 1), 0.0);
  // Same-node messages are cheaper than the wire — which is why a shard
  // pair's lookahead must min over *cross-shard* node pairs only.
  EXPECT_LT(fabric.MinLatency(1, 1), fabric.MinLatency(0, 1));
}

TEST(FabricTest, ShardLookaheadMinimizesOverCrossShardNodePairs) {
  Fabric fabric(4, TransportParams::Ethernet10G());
  const SimTime wire = TransportParams::Ethernet10G().base_latency;
  // Default placement (node % shards): every cross-shard node pair is
  // cross-node, so the bound is the wire latency — not the (smaller)
  // shared-memory latency of the same-shard pairs.
  const auto la = ShardLookahead(fabric, /*shard_of_node=*/nullptr, 2);
  EXPECT_DOUBLE_EQ(la(0, 1), wire);
  EXPECT_DOUBLE_EQ(la(1, 0), wire);
  // Custom placement splitting node 0|rest gives the same wire bound.
  const auto pinned = ShardLookahead(
      fabric, [](int node) { return node == 0 ? 0 : 1; }, 2);
  EXPECT_DOUBLE_EQ(pinned(0, 1), wire);
  EXPECT_DOUBLE_EQ(pinned(1, 0), wire);
}

TEST(ShardLookaheadTest, DrivesShardedEngineToOracleResult) {
  // End-to-end: a sharded engine whose lookahead comes from the modeled
  // fabric, with messaging paced at exactly MinLatency, matches the
  // single-threaded oracle byte for byte.
  auto run = [](int shards) {
    Fabric fabric(4, TransportParams::RdmaFdr());
    const SimTime wire = fabric.MinLatency(0, 1);
    sim::ShardOptions opts;
    opts.shards = shards;
    opts.lookahead = ShardLookahead(fabric, nullptr, shards);
    sim::Engine engine(5, sim::Backend::kFibers, std::move(opts));
    engine.EnableTrace(true);
    std::vector<sim::Pid> echoes(4);
    for (int n = 0; n < 4; ++n) {
      echoes[static_cast<std::size_t>(n)] = engine.Spawn(
          "echo" + std::to_string(n),
          [](sim::Context& ctx) {
            const SimTime woken = ctx.Block("await msg");
            ctx.Trace("echo", "t=" + std::to_string(woken));
          },
          /*node=*/n);
    }
    for (int n = 0; n < 4; ++n) {
      engine.Spawn(
          "send" + std::to_string(n),
          [&echoes, n, wire](sim::Context& ctx) {
            ctx.Compute(0.5 * (n + 1));
            ctx.engine().Wake(echoes[static_cast<std::size_t>((n + 1) % 4)],
                              ctx.now() + wire);
          },
          /*node=*/n);
    }
    auto result = engine.Run();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return engine.obs().ToChromeTraceJson();
  };
  const std::string oracle = run(1);
  EXPECT_EQ(run(2), oracle);
  EXPECT_EQ(run(4), oracle);
}

}  // namespace
}  // namespace pstk::net
