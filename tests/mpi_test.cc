#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "buf/bytes.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "mpi/mpi.h"
#include "sim/engine.h"

namespace pstk::mpi {
namespace {

struct MpiFixture {
  explicit MpiFixture(std::size_t nodes = 4, double scale = 1.0) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterSpec::Comet(nodes), scale);
  }
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
};

TEST(MpiTest, RanksSeeCorrectRankAndSize) {
  MpiFixture f;
  World world(*f.cluster, 8, 2);
  std::vector<int> seen(8, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 8);
    seen[comm.rank()] = comm.rank();
    // Block placement: 2 ranks per node.
    EXPECT_EQ(comm.node(), comm.rank() / 2);
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (int r = 0; r < 8; ++r) EXPECT_EQ(seen[r], r);
}

TEST(MpiTest, SendRecvTyped) {
  MpiFixture f;
  World world(*f.cluster, 2, 1);
  std::vector<double> received(4);
  auto t = world.RunSpmd([&](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
      comm.Send<double>(data, /*dest=*/1, /*tag=*/5);
    } else {
      const auto n = comm.Recv<double>(received, /*source=*/0, /*tag=*/5);
      EXPECT_EQ(n, 4u);
    }
  });
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(received[3], 4.0);
}

TEST(MpiTest, IsendIrecvWaitall) {
  MpiFixture f;
  World world(*f.cluster, 2, 1);
  int got_a = 0;
  int got_b = 0;
  auto t = world.RunSpmd([&](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 11;
      int b = 22;
      Request r1 = comm.Isend(&a, sizeof(a), 1, 1);
      Request r2 = comm.Isend(&b, sizeof(b), 1, 2);
      std::vector<Request> reqs{r1, r2};
      comm.Waitall(reqs);
    } else {
      Request r1 = comm.Irecv(&got_a, sizeof(got_a), 0, 1);
      Request r2 = comm.Irecv(&got_b, sizeof(got_b), 0, 2);
      comm.Wait(r2);
      comm.Wait(r1);
    }
  });
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(got_a, 11);
  EXPECT_EQ(got_b, 22);
}

TEST(MpiTest, BarrierSynchronizes) {
  MpiFixture f;
  World world(*f.cluster, 6, 2);
  std::vector<SimTime> after(6);
  auto t = world.RunSpmd([&](Comm& comm) {
    // Rank r works r*10ms before the barrier.
    comm.ctx().Compute(0.01 * comm.rank());
    comm.Barrier();
    after[comm.rank()] = comm.ctx().now();
  });
  ASSERT_TRUE(t.ok());
  // Everyone leaves the barrier at (or after) the slowest rank's entry.
  for (int r = 0; r < 6; ++r) EXPECT_GE(after[r], 0.05);
}

class BcastSweep : public ::testing::TestWithParam<int> {};

TEST_P(BcastSweep, AllRanksReceiveRootValue) {
  const int nranks = GetParam();
  MpiFixture f(8);
  World world(*f.cluster, nranks, 4);
  std::vector<std::uint64_t> got(nranks, 0);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::uint64_t value = comm.rank() == 2 % comm.size() ? 777u : 0u;
    comm.Bcast(&value, sizeof(value), 2 % comm.size());
    got[comm.rank()] = value;
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(got[r], 777u) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, BcastSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 32));

class ReduceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReduceSweep, SumReachesRoot) {
  const int nranks = GetParam();
  MpiFixture f(8);
  World world(*f.cluster, nranks, 8);
  std::vector<std::int64_t> result(3, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    // data[i] = rank + i; sum over ranks = n*(n-1)/2 + n*i.
    std::vector<std::int64_t> data{comm.rank() + 0, comm.rank() + 1,
                                   comm.rank() + 2};
    std::vector<std::int64_t> out(3);
    comm.Reduce<std::int64_t>(data, out, /*root=*/0);
    if (comm.rank() == 0) result = out;
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const std::int64_t n = nranks;
  const std::int64_t base = n * (n - 1) / 2;
  EXPECT_EQ(result[0], base);
  EXPECT_EQ(result[1], base + n);
  EXPECT_EQ(result[2], base + 2 * n);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReduceSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 64));

class AllreduceSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceSweep, EveryRankGetsTheSum) {
  const int nranks = GetParam();
  MpiFixture f(8);
  World world(*f.cluster, nranks, 8);
  std::vector<std::int64_t> results(nranks, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<std::int64_t> data{1};
    std::vector<std::int64_t> out(1);
    comm.Allreduce<std::int64_t>(data, out);
    results[comm.rank()] = out[0];
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(results[r], nranks);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllreduceSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 7, 8, 12, 16, 31,
                                           32, 64));

TEST(MpiTest, AllreduceMaxOperator) {
  MpiFixture f;
  World world(*f.cluster, 5, 2);
  std::vector<std::int64_t> results(5, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<std::int64_t> data{(comm.rank() * 7) % 5};
    std::vector<std::int64_t> out(1);
    comm.Allreduce<std::int64_t, OpMax<std::int64_t>>(data, out);
    results[comm.rank()] = out[0];
  });
  ASSERT_TRUE(t.ok());
  for (int r = 0; r < 5; ++r) EXPECT_EQ(results[r], 4);
}

TEST(MpiTest, AllreduceMaxOfSignedZerosAgreesAcrossRanks) {
  // OpMax(+0, -0) keeps its first argument, so partners that combined in
  // opposite orders used to end with different signs. The rank-ordered
  // combine gives op(rank 0's value, rank 1's value) on both ranks.
  for (const double first : {0.0, -0.0}) {
    MpiFixture f;
    World world(*f.cluster, 2, 1);
    std::vector<double> results(2, 1.0);
    auto t = world.RunSpmd([&](Comm& comm) {
      const std::vector<double> data{comm.rank() == 0 ? first : -first};
      std::vector<double> out(1);
      comm.Allreduce<double, OpMax<double>>(data, out);
      results[comm.rank()] = out[0];
    });
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(results[0], 0.0);
    EXPECT_EQ(std::signbit(results[0]), std::signbit(first));
    EXPECT_EQ(std::signbit(results[1]), std::signbit(first));
  }
}

constexpr std::size_t kBitsElems = 64;

// Seeded doubles whose first entries are signed zeros and one NaN, the
// values on which sum, max and min are sensitive to operand order.
std::vector<double> SeededAllreduceInput(int rank, int nranks) {
  Rng rng(1000 + static_cast<std::uint64_t>(rank));
  std::vector<double> data(kBitsElems);
  for (double& x : data) x = rng.Uniform(-1.0, 1.0);
  data[0] = -0.0;
  data[1] = rank % 2 == 0 ? 0.0 : -0.0;
  data[2] = rank % 3 == 0 ? -0.0 : 0.0;
  data[3] = rank == nranks / 2 ? std::numeric_limits<double>::quiet_NaN()
                               : static_cast<double>(rank);
  return data;
}

// Every rank's Allreduce output, concatenated in rank order.
template <typename Op>
std::vector<double> AllreduceOnEveryRank(int nranks) {
  MpiFixture f(8);
  World world(*f.cluster, nranks, 4);
  std::vector<double> results(static_cast<std::size_t>(nranks) * kBitsElems);
  auto t = world.RunSpmd([&](Comm& comm) {
    const std::vector<double> data =
        SeededAllreduceInput(comm.rank(), nranks);
    comm.Allreduce<double, Op>(
        data, std::span<double>(results).subspan(
                  static_cast<std::size_t>(comm.rank()) * kBitsElems,
                  kBitsElems));
  });
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return results;
}

template <typename Op>
void ExpectSameBitsOnEveryRank(int nranks) {
  const std::vector<double> results = AllreduceOnEveryRank<Op>(nranks);
  const std::size_t row = kBitsElems * sizeof(double);
  for (int r = 1; r < nranks; ++r) {
    EXPECT_EQ(std::memcmp(results.data(),
                          results.data() + static_cast<std::size_t>(r) *
                                               kBitsElems,
                          row),
              0)
        << "rank " << r << " of " << nranks;
  }
  // Past the order-sensitive entries the value itself is checked.
  std::vector<double> expected = SeededAllreduceInput(0, nranks);
  for (int r = 1; r < nranks; ++r) {
    const std::vector<double> in = SeededAllreduceInput(r, nranks);
    for (std::size_t i = 4; i < kBitsElems; ++i) {
      expected[i] = Op{}(expected[i], in[i]);
    }
  }
  for (std::size_t i = 4; i < kBitsElems; ++i) {
    EXPECT_NEAR(results[i], expected[i], 1e-12) << "element " << i;
  }
}

class AllreduceBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceBitsSweep, EveryRankHoldsIdenticalBits) {
  ExpectSameBitsOnEveryRank<OpSum<double>>(GetParam());
  ExpectSameBitsOnEveryRank<OpMax<double>>(GetParam());
  ExpectSameBitsOnEveryRank<OpMin<double>>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllreduceBitsSweep,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 12, 16, 17));

TEST(MpiTest, AllreduceCopiesOnceOnEntryAndSharesEachCombine) {
  // Buffer statistics are process-global, so each Allreduce job is diffed
  // against the same job without it: launch and finalize traffic cancel.
  constexpr std::size_t kElems = 1000;
  struct Delta {
    std::uint64_t chunks = 0;
    std::uint64_t copies = 0;
    std::uint64_t copy_bytes = 0;
  };
  auto run = [](int nranks, bool allreduce) {
    MpiFixture f(8);
    World world(*f.cluster, nranks, 4);
    const buf::StatsSnapshot before = buf::SnapshotStats();
    auto t = world.RunSpmd([&](Comm& comm) {
      if (!allreduce) return;
      const std::vector<double> data(kElems, comm.rank() + 0.5);
      std::vector<double> out(kElems);
      comm.Allreduce<double>(data, out);
    });
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    const buf::StatsSnapshot after = buf::SnapshotStats();
    return Delta{after.chunks_allocated - before.chunks_allocated,
                 after.copies - before.copies,
                 after.copy_bytes - before.copy_bytes};
  };
  for (const int nranks : {1, 2, 8, 32}) {
    const Delta with = run(nranks, true);
    const Delta without = run(nranks, false);
    const auto p = static_cast<std::uint64_t>(nranks);
    EXPECT_EQ(with.copies - without.copies, p) << nranks << " ranks";
    EXPECT_EQ(with.copy_bytes - without.copy_bytes, p * kElems * 8)
        << nranks << " ranks";
    // P entry copies plus P-1 combine results, one per tree node.
    EXPECT_EQ(with.chunks - without.chunks, p + (p - 1))
        << nranks << " ranks";
  }
}

constexpr std::size_t kJobElems = 512;

struct AllreduceJobs {
  std::vector<std::vector<double>> results;  // per job: every rank's rows
  std::vector<SimTime> ends;
  std::string trace;
};

// Four 8-rank jobs running Allreduce rounds at once, each on its own two
// nodes and its own fabric. One MPI job may not span shards (its ranks
// share mailboxes at zero lookahead), so with `shards` = 4 each job gets
// a shard and the four run on separate host threads.
AllreduceJobs RunConcurrentAllreduceJobs(sim::Backend backend, int shards) {
  constexpr int kJobs = 4;
  constexpr int kRanks = 8;
  constexpr int kRanksPerNode = 4;
  constexpr int kNodesPerJob = kRanks / kRanksPerNode;
  constexpr int kRounds = 3;
  sim::ShardOptions opts;
  if (shards > 1) {
    opts.shards = shards;
    opts.shard_of_node = [](int node) { return node / kNodesPerJob; };
    // The jobs never interact, so any positive lookahead is exact.
    opts.lookahead = [](int, int) { return 1.0; };
  }
  sim::Engine engine(7, backend, std::move(opts));
  engine.EnableTrace(true);
  cluster::Cluster cluster(engine,
                           cluster::ClusterSpec::Comet(kJobs * kNodesPerJob));
  AllreduceJobs out;
  out.results.assign(kJobs, std::vector<double>(kRanks * kJobElems, -1.0));
  std::vector<std::unique_ptr<World>> worlds;
  for (int j = 0; j < kJobs; ++j) {
    MpiOptions options;
    options.name = "job" + std::to_string(j);
    options.transport = cluster.spec().transport;
    options.transport->name += "-" + options.name;
    for (int r = 0; r < kRanks; ++r) {
      options.placement.push_back(j * kNodesPerJob + r / kRanksPerNode);
    }
    worlds.push_back(std::make_unique<World>(cluster, kRanks, kRanksPerNode,
                                             std::move(options)));
    std::vector<double>& rows = out.results[static_cast<std::size_t>(j)];
    worlds.back()->SpawnRanks([&rows, j](Comm& comm) {
      Rng rng(static_cast<std::uint64_t>(j * 100 + comm.rank()));
      std::vector<double> data(kJobElems);
      const std::span<double> mine = std::span<double>(rows).subspan(
          static_cast<std::size_t>(comm.rank()) * kJobElems, kJobElems);
      for (int round = 0; round < kRounds; ++round) {
        for (double& x : data) x = rng.Uniform(-1.0, 1.0);
        comm.Allreduce<double>(data, mine);
        comm.ctx().Compute(1e-4 * (comm.rank() + 1));
      }
    });
  }
  const sim::RunResult result = engine.Run();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  for (const auto& world : worlds) out.ends.push_back(world->job_end_time());
  out.trace = engine.obs().ToChromeTraceJson();
  return out;
}

TEST(MpiTest, AllreduceIsBackendAndShardCountInvariant) {
  const AllreduceJobs oracle =
      RunConcurrentAllreduceJobs(sim::Backend::kFibers, 1);
  for (const auto& rows : oracle.results) {
    for (std::size_t r = 1; r < rows.size() / kJobElems; ++r) {
      EXPECT_EQ(std::memcmp(rows.data(), rows.data() + r * kJobElems,
                            kJobElems * sizeof(double)),
                0);
    }
  }
  const AllreduceJobs threads =
      RunConcurrentAllreduceJobs(sim::Backend::kThreads, 1);
  const AllreduceJobs sharded =
      RunConcurrentAllreduceJobs(sim::Backend::kFibers, 4);
  for (const AllreduceJobs* other : {&threads, &sharded}) {
    EXPECT_EQ(other->results, oracle.results);
    EXPECT_EQ(other->ends, oracle.ends);
    EXPECT_EQ(other->trace, oracle.trace);
  }
}

TEST(MpiTest, GatherCollectsInRankOrder) {
  MpiFixture f;
  World world(*f.cluster, 6, 2);
  std::vector<int> gathered(12, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<int> mine{comm.rank() * 10, comm.rank() * 10 + 1};
    std::vector<int> out(comm.rank() == 1 ? 12 : 0);
    comm.Gather<int>(mine, out, /*root=*/1);
    if (comm.rank() == 1) gathered = out;
  });
  ASSERT_TRUE(t.ok());
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(gathered[2 * r], r * 10);
    EXPECT_EQ(gathered[2 * r + 1], r * 10 + 1);
  }
}

class AllgatherSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllgatherSweep, RingDeliversAllBlocks) {
  const int nranks = GetParam();
  MpiFixture f(8);
  World world(*f.cluster, nranks, 8);
  std::vector<std::vector<int>> results(nranks);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<int> mine{comm.rank(), comm.rank() + 100};
    std::vector<int> out(2 * nranks);
    comm.Allgather<int>(mine, out);
    results[comm.rank()] = out;
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (int r = 0; r < nranks; ++r) {
    for (int s = 0; s < nranks; ++s) {
      EXPECT_EQ(results[r][2 * s], s);
      EXPECT_EQ(results[r][2 * s + 1], s + 100);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllgatherSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(MpiTest, ScatterDistributesPieces) {
  MpiFixture f;
  World world(*f.cluster, 4, 2);
  std::vector<int> received(4, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    std::vector<int> all;
    if (comm.rank() == 0) all = {100, 101, 102, 103};
    std::vector<int> mine(1);
    comm.Scatter<int>(all, mine, /*root=*/0);
    received[comm.rank()] = mine[0];
  });
  ASSERT_TRUE(t.ok());
  for (int r = 0; r < 4; ++r) EXPECT_EQ(received[r], 100 + r);
}

TEST(MpiTest, AlltoallTransposes) {
  MpiFixture f;
  const int n = 4;
  World world(*f.cluster, n, 2);
  std::vector<std::vector<int>> results(n);
  auto t = world.RunSpmd([&](Comm& comm) {
    // Element j of rank i is i*10 + j; after alltoall rank i holds j*10 + i.
    std::vector<int> data(n);
    for (int j = 0; j < n; ++j) data[j] = comm.rank() * 10 + j;
    std::vector<int> out(n);
    comm.Alltoall<int>(data, out);
    results[comm.rank()] = out;
  });
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(results[i][j], j * 10 + i);
    }
  }
}

TEST(MpiTest, SplitCreatesIndependentComms) {
  MpiFixture f;
  World world(*f.cluster, 8, 2);
  std::vector<int> subrank(8, -1);
  std::vector<std::int64_t> subsum(8, -1);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto sub = comm.Split(comm.rank() % 2, comm.rank());
    subrank[comm.rank()] = sub->rank();
    EXPECT_EQ(sub->size(), 4);
    std::vector<std::int64_t> data{comm.rank()};
    std::vector<std::int64_t> out(1);
    sub->Allreduce<std::int64_t>(data, out);
    subsum[comm.rank()] = out[0];
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Evens: 0+2+4+6 = 12; odds: 1+3+5+7 = 16.
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(subsum[r], r % 2 == 0 ? 12 : 16);
    EXPECT_EQ(subrank[r], r / 2);
  }
}

TEST(MpiTest, IprobeSeesPendingMessage) {
  MpiFixture f;
  World world(*f.cluster, 2, 1);
  bool before = true;
  bool after = false;
  auto t = world.RunSpmd([&](Comm& comm) {
    if (comm.rank() == 0) {
      int x = 1;
      comm.ctx().SleepFor(0.5);
      comm.Send(&x, sizeof(x), 1, 9);
    } else {
      before = comm.Iprobe(0, 9);  // nothing yet
      comm.ctx().SleepFor(1.0);
      after = comm.Iprobe(0, 9);
      int x = 0;
      comm.Recv(&x, sizeof(x), 0, 9);
    }
  });
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(MpiTest, CollectiveLatencyScalesLogarithmically) {
  // Allreduce of a tiny payload: time should grow ~log2(n), far from
  // linearly. Compare 4 vs 64 ranks.
  auto measure = [](int nranks) {
    MpiFixture f(8);
    World world(*f.cluster, nranks, 8);
    SimTime elapsed = 0;
    MpiOptions options;
    auto t = world.RunSpmd([&](Comm& comm) {
      comm.Barrier();
      const SimTime start = comm.ctx().now();
      std::vector<float> data{1.0F};
      std::vector<float> out(1);
      for (int i = 0; i < 10; ++i) comm.Allreduce<float>(data, out);
      if (comm.rank() == 0) elapsed = comm.ctx().now() - start;
    });
    EXPECT_TRUE(t.ok());
    return elapsed;
  };
  const SimTime t4 = measure(4);
  const SimTime t64 = measure(64);
  EXPECT_GT(t64, t4);
  EXPECT_LT(t64, t4 * 8);  // log2(64)/log2(4) = 3, allow slack for NIC load
}

TEST(MpiTest, RankFailureAbortsJob) {
  MpiFixture f;
  World world(*f.cluster, 4, 1);
  world.SpawnRanks([](Comm& comm) {
    comm.ctx().SleepFor(10.0);
    comm.Barrier();
  });
  f.cluster->FailNode(2, 5.0);
  // RunSpmd not used (we needed to inject between spawn and run).
  auto result = f.engine.Run();
  EXPECT_GT(result.killed, 0u);
}

// --------------------------------------------------------------------------
// MPI-IO
// --------------------------------------------------------------------------

std::string MakeText(std::size_t bytes) {
  std::string out;
  out.reserve(bytes + 32);
  int i = 0;
  while (out.size() < bytes) {
    out += "record-" + std::to_string(i++) + "\n";
  }
  return out;
}

TEST(MpiIoTest, OpenRequiresLocalReplica) {
  MpiFixture f(2);
  // Stage the file on node 0 only.
  f.cluster->scratch(0).Install("/scratch/in", MakeText(1000));
  World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/scratch/in");
    if (comm.node() == 0) {
      EXPECT_TRUE(file.ok());
    } else {
      EXPECT_FALSE(file.ok());
    }
  });
  ASSERT_TRUE(t.ok());
}

TEST(MpiIoTest, ParallelReadCoversWholeFile) {
  MpiFixture f(4);
  const std::string content = MakeText(100000);
  for (int n = 0; n < 4; ++n) {
    f.cluster->scratch(n).Install("/scratch/in", content);
  }
  World world(*f.cluster, 4, 1);
  std::vector<std::string> pieces(4);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/scratch/in");
    ASSERT_TRUE(file.ok());
    const Bytes chunk = file->size() / comm.size();
    const Bytes offset = chunk * comm.rank();
    const Bytes len = comm.rank() == comm.size() - 1
                          ? file->size() - offset
                          : chunk;
    auto data =
        file->ReadAtAll(comm, offset, static_cast<std::int32_t>(len));
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    pieces[comm.rank()] = data.value();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::string reassembled;
  for (const auto& piece : pieces) reassembled += piece;
  EXPECT_EQ(reassembled, content);
}

TEST(MpiIoTest, ScaledFileSizeIsModeled) {
  MpiFixture f(2, /*scale=*/0.001);
  const std::string content = MakeText(64 * kKiB);
  f.cluster->scratch(0).Install("/in", content);
  f.cluster->scratch(1).Install("/in", content);
  World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/in");
    ASSERT_TRUE(file.ok());
    // Modeled size is 1000x the staged size.
    EXPECT_NEAR(static_cast<double>(file->size()),
                static_cast<double>(content.size()) * 1000.0,
                static_cast<double>(content.size()));
  });
  ASSERT_TRUE(t.ok());
}

TEST(MpiIoTest, IntCountCannotExpressMoreThan2GB) {
  // The structural limitation from the paper: with a modeled 8 GiB file and
  // 2 ranks, the per-rank chunk (4 GiB) exceeds INT32_MAX and cannot even be
  // passed to ReadAtAll. Callers must detect this, as our benches do.
  MpiFixture f(2, /*scale=*/0.00001);
  const std::string content = MakeText(90 * kKiB);  // ~8.6 GiB modeled
  f.cluster->scratch(0).Install("/in", content);
  f.cluster->scratch(1).Install("/in", content);
  World world(*f.cluster, 2, 1);
  bool chunk_too_large = false;
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/in");
    ASSERT_TRUE(file.ok());
    const Bytes chunk = file->size() / comm.size();
    if (chunk > static_cast<Bytes>(std::numeric_limits<std::int32_t>::max())) {
      chunk_too_large = true;  // MPI_File_read_at_all(int count) unusable
      return;
    }
    FAIL() << "expected the chunk to exceed INT32_MAX";
  });
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(chunk_too_large);
}

TEST(MpiIoTest, ReadAtIndependentMatchesCollective) {
  MpiFixture f(2);
  const std::string content = MakeText(5000);
  f.cluster->scratch(0).Install("/in", content);
  f.cluster->scratch(1).Install("/in", content);
  World world(*f.cluster, 2, 1);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/in");
    ASSERT_TRUE(file.ok());
    auto collective = file->ReadAtAll(comm, 100, 50);
    auto independent = file->ReadAt(comm, 100, 50);
    ASSERT_TRUE(collective.ok());
    ASSERT_TRUE(independent.ok());
    EXPECT_EQ(collective.value(), independent.value());
  });
  ASSERT_TRUE(t.ok());
}

}  // namespace
}  // namespace pstk::mpi

namespace pstk::mpi {
namespace {

// Property sweep: ReadLinesAtAll over ranges that tile the file must yield
// every line exactly once, for any rank count and scale.
class ReadLinesSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ReadLinesSweep, TilingRangesCoverEveryLineOnce) {
  const auto [nranks, scale] = GetParam();
  MpiFixture f(8, scale);
  std::string content;
  int expected_lines = 0;
  {
    Rng rng(nranks * 1000 + 7);
    for (int i = 0; i < 400; ++i) {
      content += "line-" + std::to_string(i);
      content += std::string(rng.Below(60), '.');
      content += '\n';
      ++expected_lines;
    }
  }
  for (int n = 0; n < 8; ++n) {
    f.cluster->scratch(n).Install("/in", content);
  }
  World world(*f.cluster, nranks, 8);
  std::vector<std::string> pieces(nranks);
  auto t = world.RunSpmd([&](Comm& comm) {
    auto file = File::OpenAll(comm, "/in");
    ASSERT_TRUE(file.ok());
    const Bytes chunk = file->size() / comm.size();
    const Bytes offset = chunk * comm.rank();
    const Bytes len = comm.rank() == comm.size() - 1
                          ? file->size() - offset
                          : chunk;
    auto data =
        file->ReadLinesAtAll(comm, offset, static_cast<std::int32_t>(len));
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    pieces[comm.rank()] = data.value();
  });
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::string reassembled;
  for (const auto& piece : pieces) {
    // Every piece is whole lines.
    if (!piece.empty()) {
      EXPECT_EQ(piece.back(), '\n');
    }
    reassembled += piece;
  }
  EXPECT_EQ(reassembled, content);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndScales, ReadLinesSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 16, 64),
                       ::testing::Values(1.0, 0.1, 0.001)));

}  // namespace
}  // namespace pstk::mpi
