#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "cluster/cluster.h"
#include "dfs/dfs.h"
#include "mr/mr.h"
#include "sim/engine.h"

namespace pstk::mr {
namespace {

// Word-count style fixture over a small synthetic corpus.
struct MrFixture {
  explicit MrFixture(std::size_t nodes = 4, double scale = 1.0,
                     dfs::DfsOptions dfs_options = SmallBlocks()) {
    cluster = std::make_unique<cluster::Cluster>(
        engine, cluster::ClusterSpec::Comet(nodes), scale);
    dfs = std::make_unique<dfs::MiniDfs>(*cluster, dfs_options);
    MrOptions options;
    options.jvm_startup_per_task = Millis(50);  // keep tests snappy
    options.job_setup = Millis(100);
    mr = std::make_unique<MrEngine>(*cluster, *dfs, options);
  }
  static dfs::DfsOptions SmallBlocks() {
    dfs::DfsOptions o;
    o.block_size = 2 * kKiB;
    return o;
  }
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<dfs::MiniDfs> dfs;
  std::unique_ptr<MrEngine> mr;
};

std::string WordCorpus(int lines) {
  static const char* words[] = {"spark", "hadoop", "mpi", "openmp", "shmem"};
  std::string out;
  for (int i = 0; i < lines; ++i) {
    out += words[i % 5];
    out += ' ';
    out += words[(i * 7) % 5];
    out += '\n';
  }
  return out;
}

MapFn WordCountMap() {
  return [](const std::string& line, Emitter& out) {
    std::size_t pos = 0;
    while (pos < line.size()) {
      auto space = line.find(' ', pos);
      if (space == std::string::npos) space = line.size();
      if (space > pos) out.Emit(line.substr(pos, space - pos), "1");
      pos = space + 1;
    }
  };
}

ReduceFn WordCountReduce() {
  return [](const std::string& key, const std::vector<std::string>& values,
            Emitter& out) {
    std::int64_t sum = 0;
    for (const auto& v : values) sum += std::stoll(v);
    out.Emit(key, std::to_string(sum));
  };
}

std::map<std::string, std::int64_t> ParseOutput(MrFixture& f,
                                                const std::string& dir,
                                                int reducers) {
  std::map<std::string, std::int64_t> counts;
  sim::Engine reader_engine;
  // Read through a fresh process in the same engine is over; use Stat to
  // fetch contents directly via a throwaway process in a new engine run is
  // impossible — instead re-run a tiny process in the existing engine.
  // Simpler: MiniDfs keeps content; spawn a reader process post-hoc.
  for (int r = 0; r < reducers; ++r) {
    const std::string path = dir + "/part-r-" + std::to_string(r);
    auto stat = f.dfs->Stat(path);
    if (!stat.ok()) continue;
    // Pull the bytes without charging time: run one more engine pass.
    std::string content;
    f.engine.Spawn("post-reader", [&, path](sim::Context& ctx) {
      auto data = f.dfs->ReadAll(ctx, 0, path);
      if (data.ok()) content = data.value().ToString();
    });
    EXPECT_TRUE(f.engine.Run().status.ok());
    std::size_t pos = 0;
    while (pos < content.size()) {
      auto nl = content.find('\n', pos);
      if (nl == std::string::npos) nl = content.size();
      const std::string line = content.substr(pos, nl - pos);
      pos = nl + 1;
      const auto tab = line.find('\t');
      if (tab == std::string::npos) continue;
      counts[line.substr(0, tab)] += std::stoll(line.substr(tab + 1));
    }
  }
  return counts;
}

TEST(MrTest, WordCountCorrectness) {
  MrFixture f;
  const int lines = 2000;
  ASSERT_TRUE(f.dfs->Install("/in/corpus.txt", WordCorpus(lines)).ok());

  JobConf conf;
  conf.input_path = "/in/corpus.txt";
  conf.output_path = "/out/wc";
  conf.num_reducers = 3;
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->elapsed, 0.0);
  EXPECT_GT(result->counters.map_tasks, 1u);
  EXPECT_EQ(result->counters.reduce_tasks, 3u);
  EXPECT_EQ(result->counters.input_records, static_cast<std::uint64_t>(lines));
  EXPECT_EQ(result->counters.map_output_records,
            static_cast<std::uint64_t>(2 * lines));

  auto counts = ParseOutput(f, "/out/wc", 3);
  std::int64_t total = 0;
  for (const auto& [word, count] : counts) total += count;
  EXPECT_EQ(total, 2 * lines);
  // Every word appears (corpus cycles through all five).
  EXPECT_EQ(counts.size(), 5u);
}

TEST(MrTest, CombinerReducesShuffleVolume) {
  auto run = [](bool with_combiner) {
    MrFixture f;
    EXPECT_TRUE(f.dfs->Install("/in/c.txt", WordCorpus(3000)).ok());
    JobConf conf;
    conf.input_path = "/in/c.txt";
    conf.output_path = with_combiner ? "/out/comb" : "/out/nocomb";
    conf.num_reducers = 2;
    auto result = f.mr->RunJob(
        conf, WordCountMap(), WordCountReduce(),
        with_combiner ? std::optional<ReduceFn>(WordCountReduce())
                      : std::nullopt);
    EXPECT_TRUE(result.ok());
    return result->counters;
  };
  const Counters without = run(false);
  const Counters with = run(true);
  EXPECT_LT(with.shuffled_bytes, without.shuffled_bytes / 4);
  EXPECT_LT(with.spilled_bytes, without.spilled_bytes / 4);
}

TEST(MrTest, IntermediateResultsHitDisk) {
  // The paper's structural point: Hadoop persists map outputs on disk.
  MrFixture f;
  ASSERT_TRUE(f.dfs->Install("/in/d.txt", WordCorpus(2000)).ok());
  JobConf conf;
  conf.input_path = "/in/d.txt";
  conf.output_path = "/out/d";
  conf.write_output = false;
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->counters.spilled_bytes, 0u);
  EXPECT_GT(result->counters.shuffled_bytes, 0u);
}

TEST(MrTest, MoreReducersSpreadOutput) {
  MrFixture f;
  ASSERT_TRUE(f.dfs->Install("/in/r.txt", WordCorpus(1000)).ok());
  JobConf conf;
  conf.input_path = "/in/r.txt";
  conf.output_path = "/out/r";
  conf.num_reducers = 5;
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  ASSERT_TRUE(result.ok());
  int parts = 0;
  for (int r = 0; r < 5; ++r) {
    if (f.dfs->Exists("/out/r/part-r-" + std::to_string(r))) ++parts;
  }
  EXPECT_EQ(parts, 5);
}

TEST(MrTest, MissingInputFailsCleanly) {
  MrFixture f;
  JobConf conf;
  conf.input_path = "/no/such/file";
  conf.output_path = "/out/x";
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(MrTest, NodeFailureMidJobRecovers) {
  MrFixture f(4);
  // Slow the per-task JVM launch down so tasks are guaranteed to be in
  // flight on every node when the failure hits.
  {
    MrOptions options;
    options.jvm_startup_per_task = Millis(500);
    options.job_setup = Millis(100);
    f.mr = std::make_unique<MrEngine>(*f.cluster, *f.dfs, options);
  }
  ASSERT_TRUE(f.dfs->Install("/in/ft.txt", WordCorpus(4000)).ok());

  JobConf conf;
  conf.input_path = "/in/ft.txt";
  conf.output_path = "/out/ft";
  conf.num_reducers = 2;

  std::optional<Result<JobResult>> outcome;
  f.mr->Submit(conf, WordCountMap(), WordCountReduce(), std::nullopt,
               [&](Result<JobResult> r) { outcome = std::move(r); });
  // Fail node 1 while its workers are mid-map (node 0 hosts the
  // coordinator); DFS re-replicates its blocks.
  f.cluster->FailNode(1, 0.4);
  f.dfs->OnNodeFailed(1, 0.4);
  auto run = f.engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_GT((*outcome)->counters.task_retries, 0u);

  auto counts = ParseOutput(f, "/out/ft", 2);
  std::int64_t total = 0;
  for (const auto& [word, count] : counts) total += count;
  EXPECT_EQ(total, 8000);  // 2 words x 4000 lines, nothing lost
}

// Word count with one reducer on 4 nodes x 8 slots; node 2 (which hosts
// map outputs but not the coordinator) fails at `fail_at` (< 0: never) and
// comes back at `restore_at` (> 0 only).
struct LateFailure {
  Counters counters;
  std::size_t splits = 0;
  std::int64_t words = 0;
  std::size_t distinct = 0;
};
LateFailure RunWithLateFailure(SimTime fail_at, SimTime restore_at) {
  MrFixture f(4);
  {
    MrOptions options;
    options.jvm_startup_per_task = Seconds(1.0);
    options.job_setup = Millis(100);
    f.mr = std::make_unique<MrEngine>(*f.cluster, *f.dfs, options);
  }
  EXPECT_TRUE(f.dfs->Install("/in/late.txt", WordCorpus(6000)).ok());
  LateFailure out;
  out.splits = f.dfs->BlockLocations("/in/late.txt").value().size();

  JobConf conf;
  conf.input_path = "/in/late.txt";
  conf.output_path = "/out/late";
  conf.num_reducers = 1;
  std::optional<Result<JobResult>> outcome;
  f.mr->Submit(conf, WordCountMap(), WordCountReduce(), std::nullopt,
               [&](Result<JobResult> r) { outcome = std::move(r); });
  constexpr int kVictim = 2;
  if (fail_at >= 0) f.cluster->FailNode(kVictim, fail_at);
  if (restore_at > 0) f.cluster->RestoreNode(kVictim, restore_at);
  auto run = f.engine.Run();
  EXPECT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_TRUE(outcome.has_value() && outcome->ok());
  if (!outcome.has_value() || !outcome->ok()) return out;
  out.counters = (*outcome)->counters;
  auto counts = ParseOutput(f, "/out/late", 1);
  for (const auto& [word, count] : counts) out.words += count;
  out.distinct = counts.size();
  return out;
}

TEST(MrTest, NodeFailureAfterMapsRerunsLostOutputs) {
  // Failure-free: 36 splits, every map runs once. 32 slots run the first
  // wave (8 maps per node), the last map finishes by t=2.2, and the single
  // reducer is in its JVM launch until ~t=3.1; the failure lands there.
  const LateFailure clean = RunWithLateFailure(/*fail_at=*/-1, 0);
  ASSERT_EQ(clean.splits, 36u);
  EXPECT_EQ(clean.counters.map_tasks, clean.splits);
  EXPECT_EQ(clean.counters.task_retries, 0u);
  EXPECT_EQ(clean.words, 12000);

  const LateFailure failed = RunWithLateFailure(/*fail_at=*/2.6, 0);
  EXPECT_EQ(failed.words, 12000);  // 2 words x 6000 lines, nothing lost
  EXPECT_EQ(failed.distinct, 5u);
  EXPECT_EQ(failed.counters.reduce_tasks, 1u);
  // The 8 maps whose outputs lived on the failed node ran twice; the
  // reducer's fetch failed once on the missing outputs.
  EXPECT_EQ(failed.counters.map_tasks, 44u);
  EXPECT_EQ(failed.counters.task_retries, 9u);
}

TEST(MrTest, RestoredNodeDoesNotResurrectErasedOutputs) {
  // The node is back before the reducer fetches, but the coordinator
  // already erased its outputs: those maps are still re-run, exactly as
  // when the node stays down.
  const LateFailure restored =
      RunWithLateFailure(/*fail_at=*/2.6, /*restore_at=*/2.9);
  EXPECT_EQ(restored.words, 12000);
  EXPECT_EQ(restored.distinct, 5u);
  EXPECT_EQ(restored.counters.map_tasks, 44u);
  EXPECT_EQ(restored.counters.task_retries, 9u);

  // Back before any coordinator sweep saw it down: nothing was lost.
  const LateFailure blip =
      RunWithLateFailure(/*fail_at=*/2.6, /*restore_at=*/2.65);
  EXPECT_EQ(blip.words, 12000);
  EXPECT_EQ(blip.counters.map_tasks, 36u);
  EXPECT_EQ(blip.counters.task_retries, 0u);
}

TEST(MrTest, JvmStartupDominatesSmallJobs) {
  // Many tiny tasks: per-task JVM launches dominate elapsed time — the
  // structural reason Hadoop loses to Spark on iterative work (§II-D).
  MrFixture f;
  ASSERT_TRUE(f.dfs->Install("/in/tiny.txt", WordCorpus(64)).ok());
  JobConf conf;
  conf.input_path = "/in/tiny.txt";
  conf.output_path = "/out/tiny";
  conf.write_output = false;
  auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
  ASSERT_TRUE(result.ok());
  // 50 ms per task (test option) + 100 ms setup is the floor.
  EXPECT_GE(result->elapsed, 0.15);
}

TEST(MrTest, ScaledRunCostsMoreSimTime) {
  auto elapsed_at_scale = [](double scale) {
    MrFixture f(4, scale);
    EXPECT_TRUE(f.dfs->Install("/in/s.txt", WordCorpus(2000)).ok());
    JobConf conf;
    conf.input_path = "/in/s.txt";
    conf.output_path = "/out/s";
    conf.write_output = false;
    auto result = f.mr->RunJob(conf, WordCountMap(), WordCountReduce());
    EXPECT_TRUE(result.ok());
    return result->elapsed;
  };
  EXPECT_GT(elapsed_at_scale(0.01), elapsed_at_scale(1.0) * 1.5);
}

}  // namespace
}  // namespace pstk::mr
