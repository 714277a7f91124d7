// recovery-ckpt: Fig FT panel b (bench/ablation_recovery.cc) — MPI+ckpt to
// NFS at the Young/Daly interval and shorter ones and SHMEM+ckpt to local
// SSD with a buddy replica, on the PageRank body under seeded
// FaultPlan::Exponential plans. Spark lineage under the same plans is left
// out: MiniSpark::ExecutorMain runs a task's closure in place from
// app_->closures, and RunTaskSet erases that entry when the task set ends
// (e.g. on a fetch failure after an executor loss) while another
// executor's task from the set is still suspended mid-run: a segfault for
// some plans (see README.md).
#include <algorithm>

#include "ckpt/ckpt.h"
#include "cluster/cluster.h"
#include "mpi/mpi.h"
#include "perfbench.h"
#include "serde/serde.h"
#include "shmem/shmem.h"
#include "workloads/pagerank.h"

namespace pstk::perfbench {

namespace {

using workloads::VertexId;

constexpr std::uint64_t kFaultStream = 3;
constexpr int kNodes = 4;
constexpr int kProcsPerNode = 2;
// Memory-bound scatter: charge each edge visit at its flop-equivalent cost
// (ablation_recovery.cc's kFlopsPerEdgeVisit).
constexpr double kFlopsPerEdgeVisit = 12000.0;
constexpr SimTime kRestartDelay = Seconds(5);  // reserved nodes, fast requeue
// Launch cost per attempt (mpirun / shmem_init). Scaled down with the job
// like the requeue delay, so failures land in the iterations, not the
// launch, and restarts restore and replay epochs.
constexpr SimTime kLaunchCost = Millis(20);
constexpr SimTime kDownFor = Seconds(1);
constexpr SimTime kHorizon = Seconds(6000);
// Node MTBF as a share of the failure-free job length: about one failure
// per job, so the checkpointed runs restart, restore and replay.
constexpr double kMtbfPerJob = 1.0;
// Independent fault plans per round. Each runs the whole interval sweep;
// several plans average the seed-to-seed variation in failure counts.
constexpr int kPlans = 8;

/// Fragment: the iteration counter + this rank's block of the rank vector.
serde::Buffer EncodeSlice(int iter, const double* ranks, VertexId lo,
                          VertexId hi) {
  Span span(Layer::kSerdeEncode);
  serde::Writer w;
  w.WriteRaw<std::int32_t>(iter);
  for (VertexId v = lo; v < hi; ++v) w.WriteRaw<double>(ranks[v]);
  return w.TakeBuffer();
}

int DecodeSlice(const serde::Buffer& fragment, double* out, VertexId lo,
                VertexId hi) {
  Span span(Layer::kSerdeDecode);
  serde::Reader r(fragment);
  const int iter = static_cast<int>(r.ReadRaw<std::int32_t>().value());
  for (VertexId v = lo; v < hi; ++v) out[v] = r.ReadRaw<double>().value();
  return iter;
}

class Recovery final : public Workload {
 public:
  explicit Recovery(bool smoke)
      : vertices_(smoke ? 2000 : 4000),
        iterations_(smoke ? 40 : 200),
        plans_(smoke ? 1 : kPlans),
        factors_(smoke ? std::vector<double>{1}
                       : std::vector<double>{0.25, 0.5, 1}) {}

  SetupTimes Setup(std::uint64_t seed) override {
    seed_ = seed;
    return MakePageRankInput(seed, vertices_, iterations_, &in_);
  }

  std::string DerivedSeeds() const override {
    std::string seeds =
        "graph=" + std::to_string(DeriveSeed(seed_, kGraphStream)) + " faults=";
    for (int p = 0; p < plans_; ++p) {
      if (p > 0) seeds += ',';
      seeds += std::to_string(
          DeriveSeed(seed_, kFaultStream + static_cast<std::uint64_t>(p)));
    }
    return seeds;
  }

  void RunRound(Round& round) override {
    LayerValues& layers = round.layers();
    const sim::FaultPlan no_faults;
    ckpt::CkptPolicy nfs;
    nfs.target_disk = ckpt::Target::kNfs;
    nfs.restart_delay = kRestartDelay;

    // Per-epoch checkpoint cost C from two failure-free runs: plain, and
    // checkpointing at every collective boundary.
    SimTime plain_time = 0;
    int dense_commits = 0;
    SimTime dense_time = 0;
    round.Job("calib plain", [&](JobRecord& job) {
      plain_time = RunHpc(false, nfs, no_faults, job, layers);
    });
    round.Job("calib every-epoch", [&](JobRecord& job) {
      ckpt::CkptPolicy every = nfs;
      every.interval = 1e-9;
      dense_time = RunHpc(false, every, no_faults, job, layers, &dense_commits);
    });
    if (plain_time <= 0 || dense_time <= 0) return;  // failures recorded
    const SimTime cost =
        std::max((dense_time - plain_time) / std::max(dense_commits, 1), 1e-4);
    const SimTime mtbf = kMtbfPerJob * plain_time;
    const SimTime tau = ckpt::YoungDalyInterval(cost, mtbf);
    for (int p = 0; p < plans_; ++p) {
      const std::string at = " plan=" + std::to_string(p);
      const sim::FaultPlan plan = sim::FaultPlan::Exponential(
          mtbf, kHorizon, kNodes, /*first_node=*/1, kDownFor,
          DeriveSeed(seed_, kFaultStream + static_cast<std::uint64_t>(p)));
      for (double factor : factors_) {
        ckpt::CkptPolicy policy = nfs;
        policy.interval = tau * factor;
        round.Job("mpi+ckpt nfs interval=" + Exact(factor) + "tau" + at,
                  [&](JobRecord& job) { RunHpc(false, policy, plan, job, layers); });
      }
      ckpt::CkptPolicy ssd = nfs;
      ssd.interval = tau;
      ssd.target_disk = ckpt::Target::kLocalSsd;
      ssd.replicate = true;  // SCR partner copy on the next node
      round.Job("shmem+ckpt ssd+buddy interval=1tau" + at,
                [&](JobRecord& job) { RunHpc(true, ssd, plan, job, layers); });
    }
  }

 private:
  /// One checkpointed PageRank job (MPI, or SHMEM when `shmem`) under
  /// `plan`. Returns its time to solution (0 on failure or DNF).
  SimTime RunHpc(bool shmem, const ckpt::CkptPolicy& policy,
                 const sim::FaultPlan& plan, JobRecord& job,
                 LayerValues& layers, int* commits = nullptr) {
    cluster::Cluster* cl = nullptr;
    ckpt::HpcJob hpc;
    hpc.spec = cluster::ClusterSpec::Comet(kNodes);
    hpc.procs = kNodes * kProcsPerNode;
    hpc.procs_per_node = kProcsPerNode;
    hpc.on_attempt = [&cl](sim::Engine& engine, cluster::Cluster& cluster) {
      cl = &cluster;
      if (Tracer::Get().enabled()) engine.EnableTrace(true);
    };
    hpc.on_attempt_end = [&layers](sim::Engine& engine, int, bool) {
      Harvest(engine, Variant::kNone, &layers);
    };
    double max_delta = -1;
    ckpt::RestartManager manager(policy, plan);
    mpi::MpiOptions mpi_options;
    mpi_options.startup_cost = kLaunchCost;
    shmem::ShmemOptions shmem_options;
    shmem_options.startup_cost = kLaunchCost;
    Result<ckpt::RecoveryOutcome> outcome =
        shmem ? manager.RunShmem(
                    hpc,
                    [&](shmem::Pe& pe, ckpt::CheckpointCoordinator& coord) {
                      ShmemBody(pe, coord, *cl, &max_delta);
                    },
                    shmem_options)
              : manager.RunMpi(
                    hpc,
                    [&](mpi::Comm& comm, ckpt::CheckpointCoordinator& coord) {
                      MpiBody(comm, coord, *cl, &max_delta);
                    },
                    mpi_options);
    Calls().iters_needed += static_cast<std::uint64_t>(iterations_);
    if (!outcome.ok()) {
      job.Fail(outcome.status().ToString());
      return 0;
    }
    const ckpt::RecoveryOutcome& o = outcome.value();
    layers["recovery.restarts"] += o.restarts;
    if (commits != nullptr) *commits = o.checkpoints_committed;
    job.virtual_results =
        std::string(o.completed ? "completed" : "DNF") +
        " time_to_solution=" + Exact(o.time_to_solution) +
        " restarts=" + std::to_string(o.restarts) +
        " epochs=" + std::to_string(o.checkpoints_committed) +
        " snapshot_bytes=" + std::to_string(o.snapshot_bytes) +
        " rollback=" + Exact(o.rollback_work);
    // A DNF (restart budget spent) is a modeled outcome, covered by the
    // virtual digest; a completed run must match the serial reference.
    if (!o.completed) return 0;
    CheckRanks(max_delta, job);
    return job.ok ? o.time_to_solution : 0;
  }

  /// One rank's share of [0, n).
  void Block(int rank, int size, VertexId* lo, VertexId* hi) const {
    const VertexId n = in_.graph.vertices;
    *lo = static_cast<VertexId>(std::uint64_t{n} * static_cast<unsigned>(rank) /
                                static_cast<unsigned>(size));
    *hi = static_cast<VertexId>(std::uint64_t{n} *
                                static_cast<unsigned>(rank + 1) /
                                static_cast<unsigned>(size));
  }

  /// Charge one iteration's modeled scatter + update compute.
  void ChargeIteration(sim::Context& ctx, const cluster::Cluster& cl,
                       VertexId lo, VertexId hi) const {
    const auto& g = in_.graph;
    const auto local_edges = g.offsets[hi] - g.offsets[lo];
    ctx.Compute(cl.ComputeTime(static_cast<double>(local_edges) *
                                       kFlopsPerEdgeVisit +
                                   static_cast<double>(g.vertices),
                               1));
  }

  void MpiBody(mpi::Comm& comm, ckpt::CheckpointCoordinator& coord,
               const cluster::Cluster& cl, double* max_delta) const {
    const auto& graph = in_.graph;
    const VertexId n = graph.vertices;
    const int rank = comm.rank();
    const int node = rank / kProcsPerNode;
    VertexId lo = 0;
    VertexId hi = 0;
    Block(rank, comm.size(), &lo, &hi);
    std::vector<double> ranks(n, 0.0);
    std::vector<double> contrib(n, 0.0);
    std::vector<double> summed(n, 0.0);
    {
      Span span(Layer::kMpiCollective);
      comm.Barrier();  // collective boundary: channels quiesced
    }
    // Uniform restore: all ranks decode a slice or all seed 1.0, and the
    // rebuilding Allreduce runs unconditionally.
    int start_iter = 0;
    const serde::Buffer* frag = coord.Restore(comm.ctx(), rank, node);
    if (frag != nullptr) {
      start_iter = DecodeSlice(*frag, contrib.data(), lo, hi) + 1;
    } else {
      std::fill(contrib.begin() + lo, contrib.begin() + hi, 1.0);
    }
    {
      Span span(Layer::kMpiCollective);
      comm.Allreduce<double>(contrib, ranks);
    }
    for (int iter = start_iter; iter < iterations_; ++iter) {
      if (rank == 0) ++Calls().iters_executed;
      std::fill(contrib.begin(), contrib.end(), 0.0);
      Scatter(graph, lo, hi, ranks.data() + lo, contrib.data());
      ChargeIteration(comm.ctx(), cl, lo, hi);
      {
        Span span(Layer::kMpiCollective);
        comm.Allreduce<double>(contrib, summed);
      }
      for (VertexId v = 0; v < n; ++v) {
        ranks[v] = workloads::kBaseRank + workloads::kDamping * summed[v];
      }
      comm.ctx().Compute(cl.ComputeTime(static_cast<double>(n), 1));
      const serde::Buffer state = EncodeSlice(iter, ranks.data(), lo, hi);
      Span span(Layer::kCkptCheckpoint);
      coord.Checkpoint(comm.ctx(), rank, node, iter, state);
    }
    if (rank == 0) *max_delta = workloads::MaxRankDelta(ranks, in_.reference);
  }

  /// The same job on SHMEM: symmetric arrays, SumToAll as the combine.
  void ShmemBody(shmem::Pe& pe, ckpt::CheckpointCoordinator& coord,
                 const cluster::Cluster& cl, double* max_delta) const {
    const auto& graph = in_.graph;
    const VertexId n = graph.vertices;
    const int me = pe.my_pe();
    const int node = me / kProcsPerNode;
    VertexId lo = 0;
    VertexId hi = 0;
    Block(me, pe.n_pes(), &lo, &hi);
    auto ranks_s = pe.Malloc<double>(n);
    auto contrib_s = pe.Malloc<double>(n);
    auto summed_s = pe.Malloc<double>(n);
    double* ranks = pe.Local(ranks_s);
    double* contrib = pe.Local(contrib_s);
    double* summed = pe.Local(summed_s);
    std::fill(ranks, ranks + n, 0.0);
    std::fill(contrib, contrib + n, 0.0);
    pe.BarrierAll();
    int start_iter = 0;
    const serde::Buffer* frag = coord.Restore(pe.ctx(), me, node);
    if (frag != nullptr) {
      start_iter = DecodeSlice(*frag, contrib, lo, hi) + 1;
    } else {
      std::fill(contrib + lo, contrib + hi, 1.0);
    }
    pe.SumToAll(ranks_s, contrib_s, n);
    for (int iter = start_iter; iter < iterations_; ++iter) {
      if (me == 0) ++Calls().iters_executed;
      std::fill(contrib, contrib + n, 0.0);
      Scatter(graph, lo, hi, ranks + lo, contrib);
      ChargeIteration(pe.ctx(), cl, lo, hi);
      pe.SumToAll(summed_s, contrib_s, n);
      for (VertexId v = 0; v < n; ++v) {
        ranks[v] = workloads::kBaseRank + workloads::kDamping * summed[v];
      }
      pe.ctx().Compute(cl.ComputeTime(static_cast<double>(n), 1));
      const serde::Buffer state = EncodeSlice(iter, ranks, lo, hi);
      Span span(Layer::kCkptCheckpoint);
      coord.Checkpoint(pe.ctx(), me, node, iter, state);
    }
    if (me == 0) {
      *max_delta = workloads::MaxRankDelta(std::vector<double>(ranks, ranks + n),
                                           in_.reference);
    }
  }

  VertexId vertices_;
  int iterations_;
  int plans_;
  std::vector<double> factors_;
  std::uint64_t seed_ = 0;
  PageRankInput in_;
};

}  // namespace

std::unique_ptr<Workload> MakeRecovery(bool smoke) {
  return std::make_unique<Recovery>(smoke);
}

}  // namespace pstk::perfbench
