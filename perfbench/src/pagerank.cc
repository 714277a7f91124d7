// pagerank-mpi (Fig 6's MPI column) and pagerank-spark (Fig 6 BDB + Fig 7
// HiBench) on one seeded power-law graph.
#include <algorithm>

#include "cluster/cluster.h"
#include "mpi/mpi.h"
#include "perfbench.h"
#include "spark/spark.h"
#include "workloads/pagerank.h"

namespace pstk::perfbench {

SetupTimes MakePageRankInput(std::uint64_t seed, workloads::VertexId vertices,
                             int iterations, PageRankInput* out) {
  SetupTimes times;
  auto start = std::chrono::steady_clock::now();
  workloads::GraphParams params;
  params.vertices = vertices;
  params.seed = DeriveSeed(seed, kGraphStream);
  out->graph = workloads::GenerateGraph(params);
  times.gen_s = SecondsSince(start);
  start = std::chrono::steady_clock::now();
  out->reference = workloads::PageRankReference(out->graph, iterations);
  times.reference_s = SecondsSince(start);
  return times;
}

void CheckRanks(double max_delta, JobRecord& job) {
  if (!(max_delta <= kRankTolerance)) {
    job.Fail("max rank delta " + Exact(max_delta) + " vs serial reference");
  }
}

namespace {

using K = std::int64_t;
using workloads::VertexId;

constexpr int kProcsPerNode = 16;  // paper: 16 processes/node for Fig 6/7

std::string GraphSeeds(std::uint64_t seed) {
  return "graph=" + std::to_string(DeriveSeed(seed, kGraphStream));
}

// --- pagerank-mpi ----------------------------------------------------------

class PageRankMpi final : public Workload {
 public:
  explicit PageRankMpi(bool smoke)
      : vertices_(smoke ? 4000 : 50000),
        nodes_(smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8}) {}

  SetupTimes Setup(std::uint64_t seed) override {
    seed_ = seed;
    return MakePageRankInput(seed, vertices_, kIterations, &in_);
  }

  std::string DerivedSeeds() const override { return GraphSeeds(seed_); }

  void RunRound(Round& round) override {
    for (int nodes : nodes_) {
      round.Job("mpi nodes=" + std::to_string(nodes),
                [&](JobRecord& job) { RunJob(nodes, job, round.layers()); });
    }
  }

 private:
  static constexpr int kIterations = 5;

  /// Block-partitioned vertices, local scatter, dense Allreduce of the
  /// contribution vector per iteration (bench/pagerank_common.cc's MPI
  /// PageRank, with spans around the collectives and the kernel).
  void RunJob(int nodes, JobRecord& job, LayerValues& layers) {
    const workloads::Graph& graph = in_.graph;
    sim::Engine engine;
    if (Tracer::Get().enabled()) engine.EnableTrace(true);
    cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(nodes));
    mpi::World world(cluster, nodes * kProcsPerNode, kProcsPerNode);
    double max_delta = -1;
    SimTime job_elapsed = 0;
    auto makespan = world.RunSpmd([&](mpi::Comm& comm) {
      {
        Span span(Layer::kMpiCollective);
        comm.Barrier();
      }
      const SimTime job_start = comm.ctx().now();
      const auto n = graph.vertices;
      const auto lo =
          static_cast<VertexId>(std::uint64_t{n} * comm.rank() / comm.size());
      const auto hi = static_cast<VertexId>(std::uint64_t{n} *
                                            (comm.rank() + 1) / comm.size());
      std::vector<double> local_ranks(hi - lo, 1.0);
      std::vector<double> contrib(n, 0.0);
      std::vector<double> summed(n, 0.0);
      for (int iter = 0; iter < kIterations; ++iter) {
        std::fill(contrib.begin(), contrib.end(), 0.0);
        Scatter(graph, lo, hi, local_ranks.data(), contrib.data());
        const auto local_edges = graph.offsets[hi] - graph.offsets[lo];
        comm.ctx().Compute(
            cluster.ComputeTime(static_cast<double>(local_edges + n), 1));
        {
          Span span(Layer::kMpiCollective);
          comm.Allreduce<double>(contrib, summed);
        }
        for (VertexId v = lo; v < hi; ++v) {
          local_ranks[v - lo] =
              workloads::kBaseRank + workloads::kDamping * summed[v];
        }
        comm.ctx().Compute(cluster.ComputeTime(static_cast<double>(n), 1));
      }
      if (comm.rank() == 0) {
        std::vector<double> ranks(n);
        for (VertexId v = 0; v < n; ++v) {
          ranks[v] = workloads::kBaseRank + workloads::kDamping * summed[v];
        }
        max_delta = workloads::MaxRankDelta(ranks, in_.reference);
        job_elapsed = comm.ctx().now() - job_start;
      }
    });
    Harvest(engine, Variant::kNone, &layers);
    if (!makespan.ok()) {
      job.Fail(makespan.status().ToString());
      return;
    }
    job.virtual_results = "elapsed=" + Exact(job_elapsed) +
                          " makespan=" + Exact(makespan.value());
    CheckRanks(max_delta, job);
  }

  VertexId vertices_;
  std::vector<int> nodes_;
  std::uint64_t seed_ = 0;
  PageRankInput in_;
};

// --- pagerank-spark --------------------------------------------------------

/// Adjacency pairs: the parsed text form Spark parallelizes.
using Links = std::vector<std::pair<K, std::vector<K>>>;

/// One Spark PageRank app.
struct SparkRun {
  Variant variant = Variant::kBdb;
  int nodes = 1;
  bool rdma = false;
};

/// BigDataBench style (bdb: hash-partitioned persisted links, narrow
/// co-partitioned join, persisted ranks) or HiBench style (no partitioner,
/// no persist: the join re-shuffles the link table every iteration). Spans
/// cover the driver actions; the UDFs are counted, never timed.
void RunSparkPageRank(const Links& links_data,
                      const std::vector<double>& reference, int iterations,
                      const SparkRun& run, JobRecord& job,
                      LayerValues& layers) {
  const bool bdb = run.variant == Variant::kBdb;
  const Layer action = bdb ? Layer::kSparkBdb : Layer::kSparkHiBench;
  std::uint64_t* udf = &Calls().spark_udf[static_cast<int>(run.variant)];
  sim::Engine engine;
  if (Tracer::Get().enabled()) engine.EnableTrace(true);
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(run.nodes));
  spark::SparkOptions options;
  options.executors_per_node = kProcsPerNode;
  options.rdma_shuffle = run.rdma;
  spark::MiniSpark spark(cluster, nullptr, options);

  Status job_status;
  SimTime job_elapsed = 0;
  double max_delta = -1;
  auto result = spark.RunApp([&](spark::SparkContext& sc) {
    const SimTime job_start = sc.ctx().now();
    const int parts = sc.default_parallelism();
    auto links =
        sc.Parallelize(links_data, parts).AsPairs<K, std::vector<K>>();
    if (bdb) {
      links = links.PartitionBy(parts);
      links.Persist(spark::StorageLevel::kMemoryAndDisk);
    }
    auto ranks = links.MapValues<double>([udf](const std::vector<K>&) {
      ++*udf;
      return 1.0;
    });
    for (int i = 0; i < iterations; ++i) {
      auto contribs =
          links.Join(ranks)
              .AsRdd()
              .FlatMap<std::pair<K, double>>(
                  [udf](const std::pair<K, std::pair<std::vector<K>, double>>&
                            entry) {
                    ++*udf;
                    const auto& [src, pair] = entry;
                    const auto& [urls, rank] = pair;
                    std::vector<std::pair<K, double>> out;
                    out.reserve(urls.size() + 1);
                    out.emplace_back(src, 0.0);
                    const double share =
                        rank / static_cast<double>(urls.size());
                    for (K url : urls) out.emplace_back(url, share);
                    return out;
                  })
              .AsPairs<K, double>();
      auto summed = contribs.ReduceByKey(
          [udf](double a, double b) {
            ++*udf;
            return a + b;
          },
          parts);
      ranks = summed.MapValues<double>([udf](const double& sum) {
        ++*udf;
        return workloads::kBaseRank + workloads::kDamping * sum;
      });
      if (bdb) ranks.Persist(spark::StorageLevel::kMemoryAndDisk);
      auto count = [&] {
        Span span(action);
        return ranks.Count();  // materialize each step
      }();
      if (!count.ok()) {
        job_status = count.status();
        return;
      }
    }
    auto final_ranks = [&] {
      Span span(action);
      return ranks.CollectAsMap();
    }();
    if (!final_ranks.ok()) {
      job_status = final_ranks.status();
      return;
    }
    std::vector<double> dense(reference.size(), workloads::kBaseRank);
    for (const auto& [v, r] : final_ranks.value()) {
      if (v >= 0 && static_cast<std::size_t>(v) < dense.size()) {
        dense[static_cast<std::size_t>(v)] = r;
      }
    }
    max_delta = workloads::MaxRankDelta(dense, reference);
    job_elapsed = sc.ctx().now() - job_start;
  });
  Harvest(engine, run.variant, &layers);
  if (!result.ok()) {
    job.Fail(result.status().ToString());
    return;
  }
  if (!job_status.ok()) {
    job.Fail(job_status.ToString());
    return;
  }
  job.virtual_results =
      "elapsed=" + Exact(job_elapsed) + " app=" + Exact(result->elapsed) +
      " shuffle_fetched=" + std::to_string(result->stats.shuffle_fetched_bytes) +
      " task_retries=" + std::to_string(result->stats.task_retries);
  CheckRanks(max_delta, job);
}

Links LinksOf(const workloads::Graph& graph) {
  Links links;
  links.reserve(graph.vertices);
  for (VertexId v = 0; v < graph.vertices; ++v) {
    std::vector<K> targets(graph.targets.begin() +
                               static_cast<std::ptrdiff_t>(graph.offsets[v]),
                           graph.targets.begin() +
                               static_cast<std::ptrdiff_t>(graph.offsets[v + 1]));
    links.emplace_back(v, std::move(targets));
  }
  return links;
}

class PageRankSpark final : public Workload {
 public:
  explicit PageRankSpark(bool smoke)
      : vertices_(smoke ? 2000 : 12000),
        nodes_(smoke ? std::vector<int>{2} : std::vector<int>{2, 8}) {}

  SetupTimes Setup(std::uint64_t seed) override {
    seed_ = seed;
    const SetupTimes times =
        MakePageRankInput(seed, vertices_, kIterations, &in_);
    links_ = LinksOf(in_.graph);  // staged once, shared by every app
    return times;
  }

  std::string DerivedSeeds() const override { return GraphSeeds(seed_); }

  void RunRound(Round& round) override {
    for (int nodes : nodes_) {
      for (Variant variant : {Variant::kBdb, Variant::kHiBench}) {
        for (bool rdma : {false, true}) {
          const std::string label =
              std::string(variant == Variant::kBdb ? "bdb" : "hibench") +
              " nodes=" + std::to_string(nodes) + (rdma ? " rdma" : "");
          SparkRun run;
          run.variant = variant;
          run.nodes = nodes;
          run.rdma = rdma;
          round.Job(label, [&](JobRecord& job) {
            RunSparkPageRank(links_, in_.reference, kIterations, run, job,
                             round.layers());
          });
        }
      }
    }
  }

 private:
  static constexpr int kIterations = 5;

  VertexId vertices_;
  std::vector<int> nodes_;
  std::uint64_t seed_ = 0;
  PageRankInput in_;
  Links links_;
};

}  // namespace

std::unique_ptr<Workload> MakePageRankMpi(bool smoke) {
  return std::make_unique<PageRankMpi>(smoke);
}

std::unique_ptr<Workload> MakePageRankSpark(bool smoke) {
  return std::make_unique<PageRankSpark>(smoke);
}

}  // namespace pstk::perfbench
