// perfbench: runs one workload of the repo benchmark in-process and prints
// its metrics. run.py builds this binary and wraps it; see ../README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--sim-backend=fibers|threads] [--spans=<file>]
//
// --trace 0: set up, run a warm-up round, then run rounds (every job of
// the workload once, each followed by another set-up) for --seconds;
// report the median round and the median set-up as the end-to-end metrics. --trace 1: alternate untraced and traced rounds; report the
// per-layer metrics of the median traced round and the tracing overhead.
// The last stdout line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "buf/bytes.h"
#include "perfbench.h"
#include "sim/engine.h"

using namespace pstk;
using namespace pstk::perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <pagerank-mpi|"
               "pagerank-spark|answerscount-wide|recovery-ckpt> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] "
               "[--sim-backend=fibers|threads] [--spans=<file>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value() == "1";
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg.rfind("--spans=", 0) == 0) {
      args.spans_path = std::string(arg.substr(8));
    } else if (arg.rfind("--sim-backend=", 0) == 0) {
      const auto backend = sim::ParseBackendName(arg.substr(14));
      if (!backend) Usage("unknown --sim-backend");
      sim::SetDefaultBackend(*backend);
    } else {
      Usage("unknown argument");
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "pagerank-mpi") return MakePageRankMpi(args.smoke);
  if (args.workload == "pagerank-spark") return MakePageRankSpark(args.smoke);
  if (args.workload == "answerscount-wide") return MakeAnswersCount(args.smoke);
  if (args.workload == "recovery-ckpt") return MakeRecovery(args.smoke);
  Usage("unknown workload");
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::uint64_t Fnv1a(std::string_view text, std::uint64_t h) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One finished round.
struct RoundResult {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  std::string digest;
  std::vector<JobRecord> jobs;
  LayerValues layers;  // per-layer metrics (counts always; times if traced)
  std::vector<SpanRecord> spans;
};

RoundResult RunOneRound(Workload& workload, bool traced) {
  Tracer& tracer = Tracer::Get();
  Calls() = CallCounts{};
  const buf::StatsSnapshot buf_before = buf::SnapshotStats();
  Round round;
  const double cpu_before = CpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  tracer.BeginRound(traced);
  workload.RunRound(round);
  tracer.EndRound();

  RoundResult out;
  out.wall_s = SecondsSince(start);
  out.cpu_s = CpuSeconds() - cpu_before;
  out.traced = traced;
  out.jobs = round.jobs();
  out.layers = std::move(round.layers());

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const JobRecord& job : out.jobs) {
    h = Fnv1a(job.label + "\t" + job.virtual_results + "\n", h);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  out.digest = hex;

  LayerValues& m = out.layers;
  const CallCounts& calls = Calls();
  const buf::StatsSnapshot buf_after = buf::SnapshotStats();
  m["buf.copies"] = static_cast<double>(buf_after.copies - buf_before.copies);
  m["buf.copy_bytes"] =
      static_cast<double>(buf_after.copy_bytes - buf_before.copy_bytes);
  m["buf.chunks_allocated"] = static_cast<double>(
      buf_after.chunks_allocated - buf_before.chunks_allocated);
  m["mpi.collective_calls"] =
      static_cast<double>(tracer.calls(Layer::kMpiCollective));
  const double udf_bdb = static_cast<double>(calls.spark_udf[1]);
  const double udf_hibench = static_cast<double>(calls.spark_udf[2]);
  m["spark.udf_calls"] = static_cast<double>(calls.spark_udf[0]) + udf_bdb +
                         udf_hibench;
  m["spark.bdb.udf_calls"] = udf_bdb;
  m["spark.hibench.udf_calls"] = udf_hibench;
  m["mr.udf_calls"] = static_cast<double>(calls.mr_udf);
  m["workloads.kernel_edges"] = static_cast<double>(calls.kernel_edges);
  m["workloads.kernel_bytes"] = static_cast<double>(calls.kernel_bytes);
  m["ckpt.useful_ratio"] =
      calls.iters_executed == 0
          ? 0.0
          : static_cast<double>(calls.iters_needed) /
                static_cast<double>(calls.iters_executed);
  if (traced) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      m[LayerMetric(static_cast<Layer>(l))] =
          tracer.self_s(static_cast<Layer>(l));
    }
    m["spark.action_s"] = m["spark.bdb.action_s"] +
                          m["spark.hibench.action_s"] +
                          m["spark.other.action_s"];
    m["trace.wall_s"] = tracer.wall_s();
    out.spans = tracer.TakeSpans();
  }
  return out;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Per-layer metrics printed by --trace 1, grouped by layer.
constexpr MetricSpec kPerLayer[] = {
    {"sim.dispatches", "count"},
    {"sim.events", "count"},
    {"sim.wakes", "count"},
    {"sim.spawns", "count"},
    {"sim.dispatch_host_s", "s"},
    {"sim.unattributed_s", "s"},
    {"net.messages", "count"},
    {"net.bytes", "B"},
    {"net.sends.eager", "count"},
    {"net.sends.rendezvous", "count"},
    {"net.sends.async", "count"},
    {"mpi.collective_s", "s"},
    {"mpi.collective_calls", "count"},
    {"mpi.io_s", "s"},
    {"spark.action_s", "s"},
    {"spark.tasks", "count"},
    {"spark.udf_calls", "count"},
    {"spark.shuffle_bytes", "B"},
    {"shuffle.bytes_fetched", "B"},
    {"spark.bdb.action_s", "s"},
    {"spark.bdb.tasks", "count"},
    {"spark.bdb.udf_calls", "count"},
    {"spark.bdb.shuffle_bytes", "B"},
    {"spark.bdb.bytes_fetched", "B"},
    {"spark.hibench.action_s", "s"},
    {"spark.hibench.tasks", "count"},
    {"spark.hibench.udf_calls", "count"},
    {"spark.hibench.shuffle_bytes", "B"},
    {"spark.hibench.bytes_fetched", "B"},
    {"mr.job_s", "s"},
    {"mr.map_tasks", "count"},
    {"mr.reduce_tasks", "count"},
    {"mr.udf_calls", "count"},
    {"mr.spilled_bytes", "B"},
    {"mr.shuffled_bytes", "B"},
    {"dfs.install_s", "s"},
    {"storage.install_s", "s"},
    {"dfs.bytes_read", "B"},
    {"dfs.block_reads", "count"},
    {"storage.scratch.bytes_read", "B"},
    {"storage.nfs.bytes_written", "B"},
    {"storage.scratch.bytes_written", "B"},
    {"buf.copies", "count"},
    {"buf.copy_bytes", "B"},
    {"buf.chunks_allocated", "count"},
    {"serde.encode_s", "s"},
    {"serde.decode_s", "s"},
    {"ckpt.checkpoint_s", "s"},
    {"ckpt.commits", "count"},
    {"ckpt.bytes", "B"},
    {"ckpt.restores", "count"},
    {"recovery.restarts", "count"},
    {"ckpt.useful_ratio", "ratio"},
    {"workloads.gen_s", "s"},
    {"workloads.reference_s", "s"},
    {"workloads.kernel_s", "s"},
    {"workloads.kernel_edges", "count"},
    {"workloads.kernel_bytes", "B"},
    {"bench.harness_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

bool IsCount(std::string_view unit) { return unit == "count" || unit == "B"; }

/// Per-layer counts must repeat exactly from round to round.
bool CountsRepeat(const std::vector<RoundResult>& rounds) {
  for (const MetricSpec& spec : kPerLayer) {
    if (!IsCount(spec.unit)) continue;
    for (const RoundResult& r : rounds) {
      const auto a = rounds.front().layers.find(spec.name);
      const auto b = r.layers.find(spec.name);
      const double va = a == rounds.front().layers.end() ? 0 : a->second;
      const double vb = b == r.layers.end() ? 0 : b->second;
      if (va != vb) {
        std::fprintf(stderr, "count %s differs between rounds: %.17g vs %.17g\n",
                     spec.name, va, vb);
        return false;
      }
    }
  }
  return true;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<JobRecord>& jobs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fputs("id,parent,job,layer,start_s,end_s,job_label\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const char* label =
        s.job >= 0 && static_cast<std::size_t>(s.job) < jobs.size()
            ? jobs[static_cast<std::size_t>(s.job)].label.c_str()
            : "";
    std::fprintf(f, "%zu,%d,%d,%s,%.9f,%.9f,%s\n", i, s.parent, s.job,
                 LayerMetric(s.layer), s.start, s.end, label);
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args);

  // Set-up once, then a warm-up round (checked, not timed); peak RSS is
  // read after it, so it does not depend on how many rounds fit.
  std::vector<double> setup_total;
  auto set_up = [&] {
    const auto start = std::chrono::steady_clock::now();
    const SetupTimes times = workload->Setup(args.seed);
    setup_total.push_back(SecondsSince(start));
    return times;
  };
  const SetupTimes setup = set_up();
  std::vector<RoundResult> rounds;
  rounds.push_back(RunOneRound(*workload, false));
  const double peak_rss_mb = PeakRssMb();

  // Measured rounds: untraced, or alternating untraced / traced. Untraced
  // runs set up again after every round, so the set-up samples (like the
  // round samples) spread over the whole run instead of one short burst.
  const int min_each = args.smoke ? 1 : (args.trace ? 2 : 3);
  const auto measure_start = std::chrono::steady_clock::now();
  for (int done = 0;; ++done) {
    const bool enough_time = SecondsSince(measure_start) >= args.seconds;
    const int per_kind = args.trace ? done / 2 : done;
    if (enough_time && per_kind >= min_each && (!args.trace || done % 2 == 0)) {
      break;
    }
    rounds.push_back(RunOneRound(*workload, args.trace && done % 2 == 1));
    if (!args.trace) set_up();
  }

  // Answers, digest, repeatability.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  bool digest_stable = true;
  for (const RoundResult& r : rounds) {
    for (const JobRecord& job : r.jobs) {
      ++attempted;
      if (!job.ok) {
        ++failed;
        if (failures.size() < 8) failures.push_back(job.label + ": " + job.why);
      }
    }
    digest_stable = digest_stable && r.digest == rounds.front().digest;
  }
  const bool counts_repeat = CountsRepeat(rounds);

  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> traced_wall;
  std::vector<const RoundResult*> traced;
  for (const RoundResult& r : std::span(rounds).subspan(1)) {
    if (r.traced) {
      traced_wall.push_back(r.wall_s);
      traced.push_back(&r);
    } else {
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
    }
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  bool identity_ok = true;
  if (!args.trace) {
    metrics.push_back({"wall_s", Median(wall), "s"});
    metrics.push_back({"setup_s", Median(setup_total), "s"});
    metrics.push_back({"cpu_s", Median(cpu), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
    metrics.push_back({"job_fail_ratio",
                       static_cast<double>(failed) /
                           static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
                       "ratio"});
  } else {
    // The traced round with the median wall time supplies every per-layer
    // value, so its self times add up to its own wall time.
    std::sort(traced.begin(), traced.end(),
              [](const RoundResult* a, const RoundResult* b) {
                return a->wall_s < b->wall_s;
              });
    const RoundResult& pick = *traced[(traced.size() - 1) / 2];
    LayerValues m = pick.layers;
    m["workloads.gen_s"] = setup.gen_s;
    m["workloads.reference_s"] = setup.reference_s;
    m["trace.overhead_frac"] = Median(traced_wall) / Median(wall) - 1.0;
    double self_sum = 0;
    for (std::size_t l = 0; l < kLayers; ++l) {
      self_sum += m[LayerMetric(static_cast<Layer>(l))];
    }
    identity_ok = std::fabs(self_sum - m["trace.wall_s"]) <=
                  1e-9 * std::max(1.0, m["trace.wall_s"]);
    for (const MetricSpec& spec : kPerLayer) {
      metrics.push_back({spec.name, m[spec.name], spec.unit});
    }
    if (!args.spans_path.empty()) WriteSpans(args.spans_path, pick.spans, pick.jobs);
    std::printf("self times + sim.unattributed_s + bench.harness_s = %.6f s, "
                "traced wall = %.6f s\n",
                self_sum, m["trace.wall_s"]);
  }

  const bool correct =
      failed == 0 && digest_stable && counts_repeat && identity_ok;
  std::printf("workload %s seed %llu (%s)%s, backend %s: %zu rounds, "
              "%llu jobs attempted, %llu failed, digest %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              workload->DerivedSeeds().c_str(), args.smoke ? " smoke" : "",
              std::string(sim::BackendName(sim::DefaultBackend())).c_str(),
              rounds.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              rounds.front().digest.c_str());
  std::printf("round wall_s (warm-up first, t = traced):");
  for (const RoundResult& r : rounds) std::printf(" %.4f%s", r.wall_s, r.traced ? "t" : "");
  std::printf("\n");
  for (const Metric& metric : metrics) {
    std::printf("  %-32s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
  if (!digest_stable) std::printf("FAILED virtual digest differs between rounds\n");
  if (!counts_repeat) std::printf("FAILED per-layer counts differ between rounds\n");
  if (!identity_ok) std::printf("FAILED self times do not sum to traced wall\n");

  std::string json = "{\"workload\":\"" + args.workload + "\"";
  json += ",\"seed\":" + std::to_string(args.seed);
  json += ",\"derived_seeds\":\"" + JsonEscape(workload->DerivedSeeds()) + "\"";
  json += std::string(",\"smoke\":") + (args.smoke ? "true" : "false");
  json += ",\"backend\":\"" +
          std::string(sim::BackendName(sim::DefaultBackend())) + "\"";
  json += ",\"digest\":\"" + rounds.front().digest + "\"";
  json += ",\"rounds\":" + std::to_string(rounds.size());
  json += std::string(",\"correct\":") + (correct ? "true" : "false");
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    json += (i ? ",\"" : "\"") + JsonEscape(failures[i]) + "\"";
  }
  json += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
