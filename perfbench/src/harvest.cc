#include <cstdio>
#include <string_view>

#include "obs/obs.h"
#include "perfbench.h"

namespace pstk::perfbench {

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

void Harvest(sim::Engine& engine, Variant variant, LayerValues* out) {
  obs::Registry& reg = engine.obs();
  auto add = [&](const std::string& name, double value) {
    (*out)[name] += value;
  };
  auto counter = [&](std::string_view name) {
    return static_cast<double>(reg.CounterByName(name));
  };
  for (const char* name :
       {"sim.dispatches", "sim.events", "sim.wakes", "sim.spawns",
        "net.sends.eager", "net.sends.rendezvous", "net.sends.async",
        "shuffle.bytes_fetched", "mr.map_tasks", "mr.reduce_tasks",
        "mr.spilled_bytes", "mr.shuffled_bytes", "dfs.bytes_read",
        "dfs.block_reads", "storage.scratch.bytes_read",
        "storage.nfs.bytes_written", "storage.scratch.bytes_written",
        "ckpt.commits", "ckpt.bytes", "ckpt.restores"}) {
    add(name, counter(name));
  }
  const double tasks = counter("spark.tasks");
  const double shuffle = counter("spark.shuffle.bytes.local") +
                         counter("spark.shuffle.bytes.socket") +
                         counter("spark.shuffle.bytes.rdma");
  const double fetched = counter("shuffle.bytes_fetched");
  add("spark.tasks", tasks);
  add("spark.shuffle_bytes", shuffle);
  if (variant != Variant::kNone) {
    const std::string prefix =
        variant == Variant::kBdb ? "spark.bdb." : "spark.hibench.";
    add(prefix + "tasks", tasks);
    add(prefix + "shuffle_bytes", shuffle);
    add(prefix + "bytes_fetched", fetched);
  }
  // net.<fabric>.messages / .bytes, whichever fabrics the run built.
  const Table table = reg.MetricsTable("");
  for (const auto& row : table.rows()) {
    const std::string_view name = row[0];
    if (name.rfind("net.", 0) != 0 || name.rfind("net.sends.", 0) == 0) {
      continue;
    }
    if (EndsWith(name, ".messages")) {
      add("net.messages", counter(name));
    } else if (EndsWith(name, ".bytes") && !EndsWith(name, ".msg_bytes")) {
      add("net.bytes", counter(name));
    }
  }
  if (const obs::Histogram* h =
          reg.histogram(reg.Intern("sim.dispatch.host_ns"))) {
    add("sim.dispatch_host_s", h->sum() * 1e-9);
  }
}

CallCounts& Calls() {
  static CallCounts counts;
  return counts;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 over (seed, stream): independent, reproducible streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
                    0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Scatter(const workloads::Graph& graph, workloads::VertexId lo,
             workloads::VertexId hi, const double* local_ranks,
             double* contrib) {
  Span span(Layer::kKernel);
  for (workloads::VertexId v = lo; v < hi; ++v) {
    const std::size_t degree = graph.out_degree(v);
    if (degree == 0) continue;
    const double share = local_ranks[v - lo] / static_cast<double>(degree);
    for (std::uint64_t e = graph.offsets[v]; e < graph.offsets[v + 1]; ++e) {
      contrib[graph.targets[e]] += share;
    }
  }
  // Computed bytes: per vertex its offsets pair and rank; per edge its
  // target id plus a read-modify-write of one contribution.
  const std::uint64_t edges = graph.offsets[hi] - graph.offsets[lo];
  CallCounts& calls = Calls();
  calls.kernel_edges += edges;
  calls.kernel_bytes +=
      (hi - lo) * (2 * sizeof(std::uint64_t) + sizeof(double)) +
      edges * (sizeof(workloads::VertexId) + 2 * sizeof(double));
}

}  // namespace pstk::perfbench
