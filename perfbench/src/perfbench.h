// Shared pieces of the repo benchmark driver: host-time spans with
// self-time attribution, per-round job records, the per-layer metric
// accumulator fed from the engines' obs counters, and the workload
// interface. See ../README.md for the workloads and metrics.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "workloads/graph.h"

namespace pstk::perfbench {

// ---------------------------------------------------------------------------
// Host-time spans.
//
// Every span belongs to one layer. Fibers share one host thread, so a
// blocking call (an Allreduce, a Spark action) stays open while other
// simulated processes run. Attribution rule: each host instant belongs to
// the most recently opened span that is still open; a layer's self time is
// the total of its instants. Time with no span open is harness time, and a
// job's root span is kUnattributed (engine scheduling and framework
// internals no finer span covers), so the self times add up to the round's
// wall time by construction.

enum class Layer : std::uint8_t {
  kHarness,          // bench.harness_s: between jobs (answer checks, bookkeeping)
  kUnattributed,     // sim.unattributed_s: a job's root span
  kMpiCollective,    // mpi.collective_s: Allreduce / Reduce / Barrier / SumToAll
  kMpiIo,            // mpi.io_s: File::ReadLinesAtAll
  kSparkBdb,         // spark.bdb.action_s: actions of BigDataBench PageRank
  kSparkHiBench,     // spark.hibench.action_s: actions of HiBench PageRank
  kSparkOther,       // other Spark driver actions (AnswersCount)
  kMrJob,            // mr.job_s: MrEngine::RunJob
  kDfsInstall,       // dfs.install_s: MiniDfs::Install
  kStorageInstall,   // storage.install_s: LocalFs::Install
  kSerdeEncode,      // serde.encode_s: snapshot fragment encode
  kSerdeDecode,      // serde.decode_s: snapshot fragment decode
  kCkptCheckpoint,   // ckpt.checkpoint_s: CheckpointCoordinator::Checkpoint
  kKernel,           // workloads.kernel_s: PageRank scatter, CountPosts
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// Metric name of a layer's self time.
const char* LayerMetric(Layer layer);

struct SpanRecord {
  double start = 0;  // host seconds since the round began
  double end = 0;
  std::int32_t parent = -1;  // span current when this one opened
  std::int32_t job = -1;
  Layer layer = Layer::kHarness;
};

/// Process-wide span recorder. Single host thread of control: the engine
/// runs one simulated process at a time on either backend.
class Tracer {
 public:
  static Tracer& Get();

  /// Start a round; spans are recorded (and the clock read) only when
  /// `enabled`. Call counts per layer are kept either way.
  void BeginRound(bool enabled);
  /// Close any span left open and finish the harness accounting.
  void EndRound();

  int Open(Layer layer);
  void Close(int id);
  void set_job(int job) { job_ = job; }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double wall_s() const { return wall_s_; }
  [[nodiscard]] double self_s(Layer layer) const {
    return self_s_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t calls(Layer layer) const {
    return calls_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::vector<SpanRecord> TakeSpans() { return std::move(spans_); }

 private:
  [[nodiscard]] double Now() const;
  /// Charge the time since the last event to the current span's layer.
  void Advance(double t);

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  double last_ = 0;
  double wall_s_ = 0;
  int job_ = -1;
  std::array<double, kLayers> self_s_{};
  std::array<std::uint64_t, kLayers> calls_{};
  std::vector<SpanRecord> spans_;
  // Open spans as a doubly linked list in open order; tail_ is current.
  std::vector<std::int32_t> prev_;
  std::vector<std::int32_t> next_;
  std::int32_t tail_ = -1;
};

/// RAII span.
class Span {
 public:
  explicit Span(Layer layer) : id_(Tracer::Get().Open(layer)) {}
  ~Span() {
    if (id_ >= 0) Tracer::Get().Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Per-round results.

/// Per-layer metric accumulator: name -> value, summed over every engine
/// and benchmark call of one round.
using LayerValues = std::map<std::string, double>;

/// Which Spark PageRank variant an engine ran, for the per-variant split.
enum class Variant : std::uint8_t { kNone, kBdb, kHiBench };

/// Fold one finished engine's obs counters (and the trace-gated dispatch
/// histogram) into `out`.
void Harvest(sim::Engine& engine, Variant variant, LayerValues* out);

/// Benchmark-side counts of calls the program makes back into the
/// benchmark's own code (UDFs, kernel work). Plain counters, no clock.
struct CallCounts {
  std::uint64_t spark_udf[3] = {0, 0, 0};  // by Variant
  std::uint64_t mr_udf = 0;
  std::uint64_t kernel_edges = 0;
  std::uint64_t kernel_bytes = 0;   // computed from array sizes
  std::uint64_t iters_needed = 0;   // ckpt jobs: iterations a clean run does
  std::uint64_t iters_executed = 0; // ckpt jobs: iterations incl. replays
};
CallCounts& Calls();

/// One simulated job of a round.
struct JobRecord {
  std::string label;
  /// Canonical text of the job's virtual-time results (elapsed, shuffle
  /// bytes, restarts, epochs committed); digested across the round.
  std::string virtual_results;
  bool ok = true;
  std::string why;  // failure reason when !ok

  void Fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }
};

class Round {
 public:
  /// Run one job: opens its root span, tags its spans with a job id, and
  /// records a failure if `body` throws.
  void Job(const std::string& label,
           const std::function<void(JobRecord&)>& body);

  [[nodiscard]] const std::vector<JobRecord>& jobs() const { return jobs_; }
  LayerValues& layers() { return layers_; }

 private:
  std::vector<JobRecord> jobs_;
  LayerValues layers_;
};

// ---------------------------------------------------------------------------
// Workloads.

/// Parts of one set-up (the rest of it is staging shared by the jobs).
struct SetupTimes {
  double gen_s = 0;        // input generation
  double reference_s = 0;  // serial references
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate inputs from `seed`, compute references, stage shared data.
  virtual SetupTimes Setup(std::uint64_t seed) = 0;
  /// Run every job once, checking each answer.
  virtual void RunRound(Round& round) = 0;
  /// The seeds derived from the workload seed, as "name=value" text.
  [[nodiscard]] virtual std::string DerivedSeeds() const = 0;
};

/// Seeded power-law graph plus its serial PageRank reference.
struct PageRankInput {
  workloads::Graph graph;
  std::vector<double> reference;
};
SetupTimes MakePageRankInput(std::uint64_t seed, workloads::VertexId vertices,
                             int iterations, PageRankInput* out);

std::unique_ptr<Workload> MakePageRankMpi(bool smoke);
std::unique_ptr<Workload> MakePageRankSpark(bool smoke);
std::unique_ptr<Workload> MakeAnswersCount(bool smoke);
std::unique_ptr<Workload> MakeRecovery(bool smoke);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.

/// Independent stream of a workload seed (graph / text / fault plan).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

/// Host seconds of steady clock between two points.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// Max |rank delta| PageRank runs must stay within.
inline constexpr double kRankTolerance = 1e-6;

/// Seed stream of the PageRank graph (DeriveSeed).
inline constexpr std::uint64_t kGraphStream = 1;

/// Fail `job` unless `max_delta` is within kRankTolerance.
void CheckRanks(double max_delta, JobRecord& job);

/// %.17g text of a double (exact round trip, for the virtual digest).
std::string Exact(double value);

/// The PageRank scatter kernel over vertices [lo, hi): adds each vertex's
/// rank share to its out-neighbours' `contrib`. `local_ranks[v - lo]` is
/// vertex v's rank. Counted (edges, computed bytes) and spanned.
void Scatter(const workloads::Graph& graph, workloads::VertexId lo,
             workloads::VertexId hi, const double* local_ranks,
             double* contrib);

}  // namespace pstk::perfbench
