#include <cstdio>
#include <exception>

#include "perfbench.h"

namespace pstk::perfbench {

const char* LayerMetric(Layer layer) {
  switch (layer) {
    case Layer::kHarness: return "bench.harness_s";
    case Layer::kUnattributed: return "sim.unattributed_s";
    case Layer::kMpiCollective: return "mpi.collective_s";
    case Layer::kMpiIo: return "mpi.io_s";
    case Layer::kSparkBdb: return "spark.bdb.action_s";
    case Layer::kSparkHiBench: return "spark.hibench.action_s";
    case Layer::kSparkOther: return "spark.other.action_s";
    case Layer::kMrJob: return "mr.job_s";
    case Layer::kDfsInstall: return "dfs.install_s";
    case Layer::kStorageInstall: return "storage.install_s";
    case Layer::kSerdeEncode: return "serde.encode_s";
    case Layer::kSerdeDecode: return "serde.decode_s";
    case Layer::kCkptCheckpoint: return "ckpt.checkpoint_s";
    case Layer::kKernel: return "workloads.kernel_s";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void Tracer::BeginRound(bool enabled) {
  enabled_ = enabled;
  self_s_.fill(0);
  calls_.fill(0);
  spans_.clear();
  prev_.clear();
  next_.clear();
  tail_ = -1;
  job_ = -1;
  wall_s_ = 0;
  last_ = 0;
  origin_ = std::chrono::steady_clock::now();
}

void Tracer::EndRound() {
  if (!enabled_) return;
  const double t = Now();
  while (tail_ >= 0) {  // spans a killed process never closed
    spans_[static_cast<std::size_t>(tail_)].end = t;
    Close(tail_);
  }
  Advance(t);
  wall_s_ = t;
}

void Tracer::Advance(double t) {
  const Layer current = tail_ >= 0
                            ? spans_[static_cast<std::size_t>(tail_)].layer
                            : Layer::kHarness;
  self_s_[static_cast<std::size_t>(current)] += t - last_;
  last_ = t;
}

int Tracer::Open(Layer layer) {
  ++calls_[static_cast<std::size_t>(layer)];
  if (!enabled_) return -1;
  const double t = Now();
  Advance(t);
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({t, t, tail_, job_, layer});
  prev_.push_back(tail_);
  next_.push_back(-1);
  if (tail_ >= 0) next_[static_cast<std::size_t>(tail_)] = id;
  tail_ = id;
  return id;
}

void Tracer::Close(int id) {
  const auto i = static_cast<std::size_t>(id);
  if (prev_[i] == -2) return;  // already closed by EndRound
  const double t = Now();
  Advance(t);
  spans_[i].end = t;
  const std::int32_t p = prev_[i];
  const std::int32_t n = next_[i];
  if (p >= 0) next_[static_cast<std::size_t>(p)] = n;
  if (n >= 0) {
    prev_[static_cast<std::size_t>(n)] = p;
  } else {
    tail_ = p;
  }
  prev_[i] = -2;
}

void Round::Job(const std::string& label,
                const std::function<void(JobRecord&)>& body) {
  jobs_.push_back({label, "", true, ""});
  Tracer::Get().set_job(static_cast<int>(jobs_.size()) - 1);
  {
    Span root(Layer::kUnattributed);
    try {
      body(jobs_.back());
    } catch (const std::exception& e) {
      jobs_.back().Fail(std::string("exception: ") + e.what());
    }
  }
  Tracer::Get().set_job(-1);
  if (!jobs_.back().ok) {
    std::fprintf(stderr, "job failed: %s: %s\n", label.c_str(),
                 jobs_.back().why.c_str());
  }
}

}  // namespace pstk::perfbench
