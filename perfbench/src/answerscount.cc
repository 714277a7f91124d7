// answerscount-wide: the extended Fig 4 sweep (EXPERIMENTS.md recipe) —
// OpenMP, MPI-IO, Hadoop MR and Spark AnswersCount over a small staged
// StackExchange dataset, from the paper's 8 processes up to 2048. OpenMP
// runs on one node only (8 threads). Hadoop runs up to 64 processes: its
// coordinator sweeps every finished map on every message, so one MR job
// costs ~1.8 host seconds at 128 processes, ~24 s at 1024 and ~65 s at
// 2048, which would leave a run too few rounds for a steady median.
#include <climits>
#include <cstdlib>
#include <memory>

#include "cluster/cluster.h"
#include "dfs/dfs.h"
#include "mpi/mpi.h"
#include "mr/mr.h"
#include "perfbench.h"
#include "spark/spark.h"
#include "workloads/stackexchange.h"

namespace pstk::perfbench {

namespace {

constexpr std::uint64_t kTextStream = 2;
constexpr int kProcsPerNode = 8;  // paper: 8 processes per node
constexpr Bytes kLogicalBytes = 80 * kGiB;  // the paper's dataset
constexpr SimTime kNativeCpuPerByte = 1.0 / 1.2e9;
constexpr const char* kDfsPath = "/in/posts.txt";
constexpr const char* kScratchPath = "/scratch/posts.txt";

using Counts = workloads::StackExchangeStats;

/// One simulated cluster with the dataset staged on DFS or on every
/// node's scratch disk (bench/fig4_answerscount.cc's MakeEnv).
struct Env {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<dfs::MiniDfs> dfs;
};

std::unique_ptr<Env> MakeEnv(int nodes, double scale, const std::string& data,
                             bool with_dfs) {
  auto env = std::make_unique<Env>();
  if (Tracer::Get().enabled()) env->engine.EnableTrace(true);
  env->cluster = std::make_unique<cluster::Cluster>(
      env->engine, cluster::ClusterSpec::Comet(nodes), scale);
  if (with_dfs) {
    env->dfs = std::make_unique<dfs::MiniDfs>(*env->cluster);
    Span span(Layer::kDfsInstall);
    if (!env->dfs->Install(kDfsPath, data).ok()) return nullptr;
  } else {
    Span span(Layer::kStorageInstall);
    for (int n = 0; n < nodes; ++n) {
      env->cluster->scratch(n).Install(kScratchPath, data);
    }
  }
  return env;
}

Counts CountPostsSpanned(std::string_view text) {
  Span span(Layer::kKernel);
  Calls().kernel_bytes += text.size();
  return workloads::CountPosts(text);
}

std::string CountsText(std::uint64_t questions, std::uint64_t answers) {
  return "questions=" + std::to_string(questions) +
         " answers=" + std::to_string(answers);
}

void CheckCounts(const Counts& truth, std::uint64_t questions,
                 std::uint64_t answers, JobRecord& job) {
  if (questions != truth.questions || answers != truth.answers) {
    job.Fail("got " + CountsText(questions, answers) + ", serial CountPosts " +
             CountsText(truth.questions, truth.answers));
  }
}

class AnswersCount final : public Workload {
 public:
  explicit AnswersCount(bool smoke)
      : scale_(smoke ? 2e-6 : 4e-6),
        procs_(smoke ? std::vector<int>{8, 64}
                     : std::vector<int>{8, 64, 512, 2048}),
        hadoop_max_procs_(smoke ? 8 : 64) {}

  SetupTimes Setup(std::uint64_t seed) override {
    seed_ = seed;
    SetupTimes times;
    auto start = std::chrono::steady_clock::now();
    workloads::StackExchangeParams params;
    params.target_bytes = static_cast<Bytes>(
        static_cast<double>(kLogicalBytes) * scale_);
    params.seed = DeriveSeed(seed, kTextStream);
    data_ = workloads::GenerateStackExchange(params, nullptr);
    times.gen_s = SecondsSince(start);
    start = std::chrono::steady_clock::now();
    truth_ = workloads::CountPosts(data_);
    times.reference_s = SecondsSince(start);
    return times;
  }

  std::string DerivedSeeds() const override {
    return "text=" + std::to_string(DeriveSeed(seed_, kTextStream));
  }

  void RunRound(Round& round) override {
    for (int procs : procs_) {
      const int nodes = procs / kProcsPerNode;
      const std::string at = " procs=" + std::to_string(procs);
      if (nodes == 1) {
        round.Job("openmp" + at,
                  [&](JobRecord& job) { RunOpenMp(procs, job, round.layers()); });
      }
      round.Job("mpi" + at,
                [&](JobRecord& job) { RunMpi(procs, job, round.layers()); });
      if (procs <= hadoop_max_procs_) {
        round.Job("hadoop" + at, [&](JobRecord& job) {
          RunHadoop(nodes, job, round.layers());
        });
      }
      round.Job("spark" + at,
                [&](JobRecord& job) { RunSpark(nodes, job, round.layers()); });
    }
  }

 private:
  void RunOpenMp(int threads, JobRecord& job, LayerValues& layers) {
    auto env = MakeEnv(1, scale_, data_, false);
    SimTime elapsed = -1;
    Counts got;
    env->engine.Spawn("omp", [&](sim::Context& ctx) {
      auto text = env->cluster->scratch(0).ReadAll(ctx, kScratchPath);
      if (!text.ok()) return;
      got = CountPostsSpanned(text.value());
      const double modeled =
          static_cast<double>(env->cluster->Modeled(text.value().size()));
      const double efficiency = 1.0 / (1.0 + 0.02 * (threads - 1));
      ctx.Compute(modeled * kNativeCpuPerByte /
                  (static_cast<double>(threads) * efficiency));
      elapsed = ctx.now();
    });
    const sim::RunResult run = env->engine.Run();
    Harvest(env->engine, Variant::kNone, &layers);
    if (!run.status.ok() || elapsed < 0) {
      job.Fail("openmp run: " + run.status.ToString());
      return;
    }
    job.virtual_results = "elapsed=" + Exact(elapsed);
    CheckCounts(truth_, got.questions, got.answers, job);
  }

  /// MPI-IO collective read + CountPosts + Reduce to rank 0. Below ~41
  /// ranks a rank's share of 80 GiB passes INT_MAX and the read must be
  /// refused (the paper's Fig 4 cliff); that refusal is the expected
  /// outcome, not a failure.
  void RunMpi(int procs, JobRecord& job, LayerValues& layers) {
    const int nodes = (procs + kProcsPerNode - 1) / kProcsPerNode;
    auto env = MakeEnv(nodes, scale_, data_, false);
    bool refused = false;
    std::string read_error;
    std::vector<std::uint64_t> total(2, 0);
    auto elapsed = mpi::World(*env->cluster, procs, kProcsPerNode)
                       .RunSpmd([&](mpi::Comm& comm) {
      auto file = mpi::File::OpenAll(comm, kScratchPath);
      if (!file.ok()) {
        if (comm.rank() == 0) read_error = file.status().ToString();
        return;
      }
      const Bytes chunk = file->size() / comm.size();
      const Bytes offset = chunk * comm.rank();
      const Bytes len =
          comm.rank() == comm.size() - 1 ? file->size() - offset : chunk;
      Result<std::string> part = [&] {
        Span span(Layer::kMpiIo);
        return file->ReadLinesAtAll(comm, offset,
                                    static_cast<std::int64_t>(len));
      }();
      if (!part.ok()) {
        if (comm.rank() == 0) {
          refused = part.status().ToString().find("INT_MAX") !=
                    std::string::npos;
          read_error = part.status().ToString();
        }
        return;
      }
      const Counts counts = CountPostsSpanned(part.value());
      comm.ctx().Compute(static_cast<double>(len) * kNativeCpuPerByte);
      const std::vector<std::uint64_t> mine{counts.questions, counts.answers};
      Span span(Layer::kMpiCollective);
      comm.Reduce<std::uint64_t>(mine, total, 0);
    });
    Harvest(env->engine, Variant::kNone, &layers);
    if (!elapsed.ok()) {
      job.Fail(elapsed.status().ToString());
      return;
    }
    const bool expect_refusal =
        kLogicalBytes / static_cast<Bytes>(procs) > Bytes{INT_MAX};
    job.virtual_results = "elapsed=" + Exact(elapsed.value()) +
                          (refused ? " refused=INT_MAX" : "");
    if (expect_refusal != refused) {
      job.Fail(expect_refusal ? "read above INT_MAX was not refused"
                              : "read failed: " + read_error);
      return;
    }
    if (!refused) CheckCounts(truth_, total[0], total[1], job);
  }

  void RunHadoop(int nodes, JobRecord& job, LayerValues& layers) {
    auto env = MakeEnv(nodes, scale_, data_, true);
    if (env == nullptr) {
      job.Fail("dfs install failed");
      return;
    }
    mr::MrOptions options;
    options.slots_per_node = kProcsPerNode;
    mr::MrEngine engine(*env->cluster, *env->dfs, options);
    mr::JobConf conf;
    conf.input_path = kDfsPath;
    conf.output_path = "/out/ac";
    conf.num_reducers = 1;
    auto map = [](const std::string& line, mr::Emitter& out) {
      ++Calls().mr_udf;
      switch (workloads::ClassifyPost(line)) {
        case workloads::PostKind::kQuestion: out.Emit("Q", "1"); break;
        case workloads::PostKind::kAnswer: out.Emit("A", "1"); break;
        default: break;
      }
    };
    auto sum = [](const std::vector<std::string>& values) {
      ++Calls().mr_udf;
      std::int64_t total = 0;
      for (const auto& v : values) total += std::strtoll(v.c_str(), nullptr, 10);
      return total;
    };
    auto combine = [sum](const std::string& key,
                         const std::vector<std::string>& values,
                         mr::Emitter& out) {
      out.Emit(key, std::to_string(sum(values)));
    };
    // The reducer's emitted totals are the job's answer.
    std::map<std::string, std::int64_t> output;
    auto reduce = [sum, &output](const std::string& key,
                                 const std::vector<std::string>& values,
                                 mr::Emitter& out) {
      const std::int64_t total = sum(values);
      output[key] = total;
      out.Emit(key, std::to_string(total));
    };
    Result<mr::JobResult> result = [&] {
      Span span(Layer::kMrJob);
      return engine.RunJob(conf, map, reduce, combine);
    }();
    Harvest(env->engine, Variant::kNone, &layers);
    if (!result.ok()) {
      job.Fail(result.status().ToString());
      return;
    }
    job.virtual_results =
        "elapsed=" + Exact(result->elapsed) +
        " shuffled=" + std::to_string(result->counters.shuffled_bytes) +
        " spilled=" + std::to_string(result->counters.spilled_bytes) +
        " retries=" + std::to_string(result->counters.task_retries);
    CheckCounts(truth_, static_cast<std::uint64_t>(output["Q"]),
                static_cast<std::uint64_t>(output["A"]), job);
  }

  void RunSpark(int nodes, JobRecord& job, LayerValues& layers) {
    auto env = MakeEnv(nodes, scale_, data_, true);
    if (env == nullptr) {
      job.Fail("dfs install failed");
      return;
    }
    spark::SparkOptions options;
    options.executors_per_node = kProcsPerNode;
    spark::MiniSpark spark(*env->cluster, env->dfs.get(), options);
    using Pair = std::pair<std::uint64_t, std::uint64_t>;
    SimTime elapsed = -1;
    Pair got{0, 0};
    Status status;
    auto result = spark.RunApp([&](spark::SparkContext& sc) {
      auto lines = sc.TextFile(kDfsPath);
      if (!lines.ok()) {
        status = lines.status();
        return;
      }
      const SimTime start = sc.ctx().now();
      auto counted = lines->Map<Pair>([](const std::string& line) {
        ++Calls().spark_udf[0];
        switch (workloads::ClassifyPost(line)) {
          case workloads::PostKind::kQuestion: return Pair{1, 0};
          case workloads::PostKind::kAnswer: return Pair{0, 1};
          default: return Pair{0, 0};
        }
      });
      Result<Pair> total = [&] {
        Span span(Layer::kSparkOther);
        return counted.Reduce([](const Pair& a, const Pair& b) {
          ++Calls().spark_udf[0];
          return Pair{a.first + b.first, a.second + b.second};
        });
      }();
      if (!total.ok()) {
        status = total.status();
        return;
      }
      got = total.value();
      elapsed = sc.ctx().now() - start;
    });
    Harvest(env->engine, Variant::kNone, &layers);
    if (!result.ok() || !status.ok() || elapsed < 0) {
      job.Fail(result.ok() ? status.ToString() : result.status().ToString());
      return;
    }
    job.virtual_results =
        "elapsed=" + Exact(elapsed) + " app=" + Exact(result->elapsed) +
        " shuffle_fetched=" +
        std::to_string(result->stats.shuffle_fetched_bytes);
    CheckCounts(truth_, got.first, got.second, job);
  }

  double scale_;
  std::vector<int> procs_;
  int hadoop_max_procs_;
  std::uint64_t seed_ = 0;
  std::string data_;
  Counts truth_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnswersCount(bool smoke) {
  return std::make_unique<AnswersCount>(smoke);
}

}  // namespace pstk::perfbench
