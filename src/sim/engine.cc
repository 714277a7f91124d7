#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "sim/fiber.h"

namespace pstk::sim {

namespace {
constexpr SimTime kInfinity = std::numeric_limits<SimTime>::infinity();
// Events scheduled from inside a parallel round get per-shard FIFO seqs
// above every pre-run seq; coordinator-routed deliveries sit above both.
constexpr std::uint64_t kMidRunSeqBase = std::uint64_t{1} << 40;
}  // namespace

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

std::string_view BackendName(Backend backend) {
  return backend == Backend::kThreads ? "threads" : "fibers";
}

std::optional<Backend> ParseBackendName(std::string_view name) {
  if (name == "fibers") return Backend::kFibers;
  if (name == "threads") return Backend::kThreads;
  return std::nullopt;
}

std::string_view ValidBackendNames() { return "fibers, threads"; }

namespace {
std::optional<Backend>& BackendOverride() {
  static std::optional<Backend> override_backend;
  return override_backend;
}

// Re-parsed on every call (it's one getenv + two string compares): a
// cached static would freeze the first observation, and a bad value must
// fail loudly no matter when the first Engine is constructed.
Backend EnvBackend() {
  const char* env = std::getenv("PSTK_SIM_BACKEND");
  if (env == nullptr || *env == '\0') return Backend::kFibers;
  const std::optional<Backend> parsed = ParseBackendName(env);
  PSTK_CHECK_MSG(parsed.has_value(),
                 "unknown PSTK_SIM_BACKEND '"
                     << env << "' (valid backends: " << ValidBackendNames()
                     << ")");
  return *parsed;
}
}  // namespace

Backend DefaultBackend() {
  const auto& override_backend = BackendOverride();
  return override_backend.has_value() ? *override_backend : EnvBackend();
}

void SetDefaultBackend(Backend backend) { BackendOverride() = backend; }

// ---------------------------------------------------------------------------
// ThreadBackend — the legacy one-OS-thread-per-process execution mechanism.
// Cooperative batons: `engine_turn_` gates the engine loop, each process
// thread has its own `proc_turn` flag. Every dispatch is one condvar wake
// plus one condvar wait on each side (two host context switches).
// ---------------------------------------------------------------------------

namespace {

struct ThreadExec final : ProcExec {
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool proc_turn = false;  // true: process may run; false: engine's turn
  bool started = false;
};

class ThreadBackend final : public ExecBackend {
 public:
  ~ThreadBackend() override = default;

  void Resume(Engine& engine, Proc& p) override {
    auto& x = Exec(p);
    engine_turn_ = false;
    if (!x.started) {
      x.started = true;
      x.thread = std::thread([this, &engine, &p] { ThreadMain(engine, p); });
    }
    {
      std::lock_guard<std::mutex> lk(x.mu);
      x.proc_turn = true;
    }
    x.cv.notify_one();
    {
      std::unique_lock<std::mutex> lk(engine_mu_);
      engine_cv_.wait(lk, [&] { return engine_turn_; });
    }
  }

  void Suspend(Proc& p) override {
    auto& x = Exec(p);
    {
      std::lock_guard<std::mutex> lk(engine_mu_);
      engine_turn_ = true;
    }
    engine_cv_.notify_one();
    {
      std::unique_lock<std::mutex> lk(x.mu);
      x.cv.wait(lk, [&] { return x.proc_turn; });
      x.proc_turn = false;
    }
  }

  void Unwind(Engine& engine, Proc& p) override {
    auto* x = static_cast<ThreadExec*>(p.exec.get());
    if (x == nullptr || !x->started) {
      // Never ran: nothing to join; mark the corpse.
      if (p.state != ProcState::kDone) p.state = ProcState::kKilled;
      return;
    }
    if (p.state == ProcState::kBlocked || p.state == ProcState::kReady) {
      // Force the thread to unwind (kill_requested is set) so it can join.
      Resume(engine, p);
    }
    if (x->thread.joinable()) x->thread.join();
  }

 private:
  static ThreadExec& Exec(Proc& p) {
    if (p.exec == nullptr) p.exec = std::make_unique<ThreadExec>();
    return static_cast<ThreadExec&>(*p.exec);
  }

  void ThreadMain(Engine& engine, Proc& p) {
    // The process thread acts on behalf of its owning shard: bind the
    // thread-local shard slot so obs recording and cross-shard routing
    // see the right shard (shard 0 on an unsharded engine).
    engine.BindExecThread(p.shard);
    auto& x = static_cast<ThreadExec&>(*p.exec);
    // Wait for the first dispatch.
    {
      std::unique_lock<std::mutex> lk(x.mu);
      x.cv.wait(lk, [&] { return x.proc_turn; });
      x.proc_turn = false;
    }
    engine.ExecuteBody(p);
    // Hand the baton back to the engine for good.
    {
      std::lock_guard<std::mutex> lk(engine_mu_);
      engine_turn_ = true;
    }
    engine_cv_.notify_one();
  }

  std::mutex engine_mu_;
  std::condition_variable engine_cv_;
  bool engine_turn_ = true;
};

}  // namespace

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Pid Context::pid() const { return pid_; }

const std::string& Context::name() const {
  return engine_.procs_[pid_]->name;
}

int Context::node() const { return engine_.procs_[pid_]->node; }

SimTime Context::now() const { return engine_.procs_[pid_]->clock; }

Rng& Context::rng() { return engine_.procs_[pid_]->rng; }

void Context::Compute(SimTime seconds) {
  PSTK_CHECK_MSG(seconds >= 0, "negative compute time " << seconds);
  engine_.procs_[pid_]->clock += seconds;
}

void Context::SleepUntil(SimTime t) {
  // Loop: a stray Wake may resume us early; keep sleeping until t.
  while (engine_.procs_[pid_]->clock < t) {
    engine_.ProcBlockUntil(pid_, t, "sleep");
  }
}

void Context::Yield() {
  engine_.ProcBlockUntil(pid_, engine_.procs_[pid_]->clock, "yield");
}

SimTime Context::Block(std::string_view reason) {
  return engine_.ProcBlock(pid_, reason);
}

SimTime Context::BlockOn(std::string_view reason, Pid holder) {
  return engine_.ProcBlock(pid_, reason, holder);
}

SimTime Context::BlockOn(std::string_view reason, std::function<Pid()> holder) {
  return engine_.ProcBlock(pid_, reason, kNoPid, std::move(holder));
}

SimTime Context::BlockUntil(SimTime t, std::string_view reason) {
  return engine_.ProcBlockUntil(pid_, t, reason);
}

void Context::Trace(std::string_view tag, std::string_view detail) {
  obs::Registry& reg = engine_.obs_;
  if (!reg.enabled()) return;
  reg.Instant(node(), pid_, reg.Intern(tag), now(),
              detail.empty() ? obs::kNoTag : reg.Intern(detail));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

thread_local const Engine* Engine::tls_engine_ = nullptr;
thread_local int Engine::tls_shard_ = -1;

Engine::Engine(std::uint64_t seed, Backend backend)
    : Engine(seed, backend, ShardOptions{}) {}

Engine::Engine(std::uint64_t seed, Backend backend, ShardOptions shard_options)
    : seed_(seed), backend_(backend),
      shard_options_(std::move(shard_options)) {
  PSTK_CHECK_MSG(shard_options_.shards >= 1,
                 "ShardOptions.shards must be >= 1, got "
                     << shard_options_.shards);
  shards_.reserve(static_cast<std::size_t>(shard_options_.shards));
  for (int s = 0; s < shard_options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    if (backend_ == Backend::kThreads) {
      shard->exec = std::make_unique<ThreadBackend>();
    } else {
      shard->exec = std::make_unique<FiberBackend>(obs_);
    }
    shard->bound = kInfinity;
    if (shard_options_.shards > 1) {
      shard->outbox =
          std::make_unique<SpscRing<ShardMsg>>(shard_options_.channel_capacity);
    }
    shards_.push_back(std::move(shard));
  }
  tags_.dispatches = obs_.Intern("sim.dispatches");
  tags_.events = obs_.Intern("sim.events");
  tags_.wakes = obs_.Intern("sim.wakes");
  tags_.spawns = obs_.Intern("sim.spawns");
  tags_.kills = obs_.Intern("sim.kills");
  tags_.run = obs_.Intern("run");
  tags_.kill = obs_.Intern("killed");
  tags_.block = obs_.Intern("block");
  tags_.dispatch_ns = obs_.Intern("sim.dispatch.host_ns");
  shard_tags_.rounds = obs_.Intern("sim.shard.rounds");
  shard_tags_.msgs = obs_.Intern("sim.shard.msgs");
  shard_tags_.spills = obs_.Intern("sim.shard.channel_spills");
  // Which scheduler backend ran shows up in every metrics table.
  obs_.Add(obs_.Intern(backend_ == Backend::kThreads ? "sim.backend.threads"
                                                     : "sim.backend.fibers"));
}

int Engine::ShardOfNode(int node) const {
  const int count = shard_count();
  if (count <= 1) return 0;
  if (!shard_options_.shard_of_node) {
    return ((node % count) + count) % count;
  }
  const int s = shard_options_.shard_of_node(node);
  PSTK_CHECK_MSG(s >= 0 && s < count,
                 "shard_of_node(" << node << ") = " << s
                                  << " out of range [0, " << count << ")");
  return s;
}

int Engine::CurrentShardIndex() const {
  return tls_engine_ == this ? tls_shard_ : -1;
}

Engine::Shard& Engine::CurrentShard() {
  const int s = CurrentShardIndex();
  return *shards_[static_cast<std::size_t>(s >= 0 ? s : 0)];
}

void Engine::BindExecThread(int shard) {
  tls_engine_ = this;
  tls_shard_ = shard;
  obs::Registry::SetCurrentShard(shard);
}

SimTime Engine::now() const {
  const int cur = CurrentShardIndex();
  if (cur >= 0) return shards_[static_cast<std::size_t>(cur)]->frontier;
  SimTime frontier = 0;
  for (const auto& s : shards_) frontier = std::max(frontier, s->frontier);
  return frontier;
}

void Engine::EnableTrace(bool on) {
  obs_.Enable(on);
  if (on) {
    // Name tracks for processes spawned before tracing was switched on.
    for (Pid pid = 0; pid < procs_.size(); ++pid) {
      obs_.SetTrackName(procs_[pid]->node, pid, procs_[pid]->name);
    }
  }
}

Engine::~Engine() { JoinAll(); }

Pid Engine::Spawn(std::string name, ProcessBody body, int node) {
  SimTime start = 0;
  const Shard& s = *shards_[static_cast<std::size_t>(
      std::max(CurrentShardIndex(), 0))];
  if (s.running != kNoPid) {
    start = procs_[s.running]->clock;
  } else if (running_loop_) {
    // Spawned from an event handler mid-run (e.g. a scheduler arrival):
    // the child starts at the event's instant, not back at t=0.
    start = s.frontier;
  }
  return SpawnAt(start, std::move(name), std::move(body), node);
}

Pid Engine::SpawnAt(SimTime start, std::string name, ProcessBody body,
                    int node) {
  const int shard = ShardOfNode(node);
  if (in_parallel_) {
    // procs_ may be read concurrently by other shard workers; growing it
    // is only safe while one shard is doing all the work.
    PSTK_CHECK_MSG(
        populated_shards_ <= 1,
        "mid-run Spawn on a multi-shard engine: spawn every process "
        "before Run(), or confine the job to a single shard");
    PSTK_CHECK_MSG(shard == CurrentShardIndex(),
                   "mid-run Spawn targets shard "
                       << shard << " from shard " << CurrentShardIndex());
  }
  const Pid pid = static_cast<Pid>(procs_.size());
  auto proc = std::make_unique<Proc>();
  proc->name = std::move(name);
  proc->node = node;
  proc->shard = shard;
  proc->body = std::move(body);
  proc->context = std::unique_ptr<Context>(new Context(*this, pid));
  proc->rng = Rng(seed_ ^ (0x9E3779B97F4A7C15ULL * (pid + 1)));
  proc->clock = start;
  procs_.push_back(std::move(proc));
  MakeReady(pid, start);
  obs_.Add(tags_.spawns);
  if (obs_.enabled()) {
    obs_.SetTrackName(procs_[pid]->node, pid, procs_[pid]->name);
  }
  return pid;
}

void Engine::MakeReady(Pid pid, SimTime wake_at) {
  Proc& p = *procs_[pid];
  p.state = ProcState::kReady;
  p.wake_at = wake_at;
  shards_[static_cast<std::size_t>(p.shard)]->ready.Push(
      ReadyEntry{wake_at, pid, ++p.ready_stamp});
}

void Engine::RemoveReady(Pid pid) {
  // Lazy deletion: bump the stamp so any queued entry for this pid is
  // stale; PruneReady discards it when it reaches the top.
  ++procs_[pid]->ready_stamp;
}

void Engine::PruneReady(Shard& s) {
  while (!s.ready.empty()) {
    const ReadyEntry& top = s.ready.Top();
    const Proc& p = *procs_[top.pid];
    if (top.stamp == p.ready_stamp && p.state == ProcState::kReady) return;
    s.ready.PopTop();
  }
}

void Engine::ApplyWake(Pid pid, SimTime t) {
  Proc& p = *procs_[pid];
  switch (p.state) {
    case ProcState::kBlocked:
      MakeReady(pid, std::max(t, p.clock));
      break;
    case ProcState::kReady: {
      const SimTime new_wake = std::max(t, p.clock);
      if (new_wake < p.wake_at) {
        // Decrease-key: supersede the queued entry with a fresh stamp.
        RemoveReady(pid);
        MakeReady(pid, new_wake);
      }
      break;
    }
    case ProcState::kRunning:
    case ProcState::kDone:
    case ProcState::kKilled:
      break;  // nothing to wake
  }
}

void Engine::Wake(Pid pid, SimTime t) {
  PSTK_CHECK_MSG(pid < procs_.size(), "Wake: bad pid " << pid);
  obs_.Add(tags_.wakes);
  const int target = procs_[pid]->shard;
  const int cur = CurrentShardIndex();
  if (!in_parallel_ || cur < 0 || target == cur) {
    ApplyWake(pid, t);
    return;
  }
  // Cross-shard: deliver as an event at exactly t on the target shard, so
  // the target observes it at the same virtual point the single-threaded
  // engine would (the send-side lookahead check guarantees t is beyond
  // everything the target may concurrently process this window).
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kWake;
  msg.dst_shard = target;
  msg.pid = pid;
  msg.t = t;
  SendCrossShard(*shards_[static_cast<std::size_t>(cur)], std::move(msg));
}

void Engine::ScheduleEvent(SimTime t, std::function<void()> fn) {
  if (!in_parallel_) {
    shards_[0]->events.Push(EventEntry{t, event_seq_++, std::move(fn)});
    return;
  }
  Shard& s = CurrentShard();
  s.events.Push(EventEntry{t, kMidRunSeqBase + s.mid_seq++, std::move(fn)});
}

void Engine::ScheduleEventFor(int node, SimTime t, std::function<void()> fn) {
  const int dst = ShardOfNode(node);
  if (!in_parallel_) {
    shards_[static_cast<std::size_t>(dst)]->events.Push(
        EventEntry{t, event_seq_++, std::move(fn)});
    return;
  }
  const int cur = CurrentShardIndex();
  if (dst == cur) {
    Shard& s = CurrentShard();
    s.events.Push(EventEntry{t, kMidRunSeqBase + s.mid_seq++, std::move(fn)});
    return;
  }
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kEvent;
  msg.dst_shard = dst;
  msg.t = t;
  msg.fn = std::move(fn);
  SendCrossShard(*shards_[static_cast<std::size_t>(std::max(cur, 0))],
                 std::move(msg));
}

void Engine::Kill(Pid pid, SimTime t) {
  PSTK_CHECK_MSG(pid < procs_.size(), "Kill: bad pid " << pid);
  const int dst = procs_[pid]->shard;
  auto fn = [this, pid] { KillNow(pid); };
  if (!in_parallel_) {
    // Fault plans route to the victim's shard with the pre-run FIFO seq,
    // so --faults= injection replays identically at any shard count.
    shards_[static_cast<std::size_t>(dst)]->events.Push(
        EventEntry{t, event_seq_++, std::move(fn)});
    return;
  }
  const int cur = CurrentShardIndex();
  if (dst == cur) {
    Shard& s = CurrentShard();
    s.events.Push(EventEntry{t, kMidRunSeqBase + s.mid_seq++, std::move(fn)});
    return;
  }
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kKill;
  msg.dst_shard = dst;
  msg.pid = pid;
  msg.t = t;
  SendCrossShard(*shards_[static_cast<std::size_t>(std::max(cur, 0))],
                 std::move(msg));
}

void Engine::KillNow(Pid pid) {
  PSTK_CHECK_MSG(pid < procs_.size(), "Kill: bad pid " << pid);
  Proc& p = *procs_[pid];
  if (p.state == ProcState::kDone || p.state == ProcState::kKilled) return;
  if (in_parallel_) {
    PSTK_CHECK_MSG(p.shard == CurrentShardIndex(),
                   "KillNow(" << pid << ") from shard " << CurrentShardIndex()
                              << " targets shard " << p.shard
                              << "; use Kill(pid, t) with a timestamp "
                                 "respecting the shard lookahead");
  }
  Shard& s = *shards_[static_cast<std::size_t>(p.shard)];
  p.kill_requested = true;
  obs_.Add(tags_.kills);
  // The kill lands at the initiating action's virtual time (clamped to the
  // victim's own clock): a locally computable instant, identical whether
  // the surrounding run is sharded or not.
  const SimTime t = std::max(s.activation, p.clock);
  if (obs_.enabled()) {
    obs_.Instant(p.node, pid, tags_.kill, t);
  }
  if (p.state == ProcState::kBlocked) {
    MakeReady(pid, t);
  } else if (p.state == ProcState::kReady && p.wake_at > t) {
    // Die promptly rather than at the (possibly distant) scheduled wake.
    RemoveReady(pid);
    MakeReady(pid, t);
  }
}

std::vector<Pid> Engine::AlivePidsOnNode(int node) const {
  std::vector<Pid> pids;
  for (Pid pid = 0; pid < procs_.size(); ++pid) {
    if (procs_[pid]->node == node && IsAlive(pid)) pids.push_back(pid);
  }
  return pids;
}

bool Engine::IsAlive(Pid pid) const {
  if (pid >= procs_.size()) return false;
  const ProcState s = procs_[pid]->state;
  return s != ProcState::kDone && s != ProcState::kKilled;
}

std::string Engine::DescribeBlocked() const {
  std::ostringstream oss;
  for (Pid pid = 0; pid < procs_.size(); ++pid) {
    const Proc& p = *procs_[pid];
    if (p.state == ProcState::kBlocked) {
      oss << "  " << p.name << " (pid " << pid << ", t=" << p.clock
          << "): " << p.wait_reason << "\n";
    }
  }
  return oss.str();
}

namespace {
// "mpi-rank-3" -> "mpi"; "shmem-pe-0" -> "shmem"; "driver" -> "driver".
std::string FrameworkOf(const std::string& name) {
  const auto dash = name.find('-');
  return dash == std::string::npos ? name : name.substr(0, dash);
}
}  // namespace

std::string Engine::DeadlockReport() const {
  std::ostringstream oss;
  oss << "wait-for graph:\n";
  std::map<std::string, int> blame;
  for (Pid pid = 0; pid < procs_.size(); ++pid) {
    const Proc& p = *procs_[pid];
    if (p.state != ProcState::kBlocked) continue;
    ++blame[FrameworkOf(p.name)];
    oss << "  " << p.name << " (pid " << pid << ", t=" << p.clock
        << ") waits [" << p.wait_reason << "]";
    const Pid held_by = p.WaitHolder();
    if (held_by != kNoPid && held_by < procs_.size()) {
      const Proc& h = *procs_[held_by];
      oss << " -> held by " << h.name << " (pid " << held_by << ")";
    } else {
      oss << " -> held by (no known owner)";
    }
    oss << "\n";
  }

  // Cycle extraction. Each blocked process has at most one wait-for edge
  // (its holder), so the graph is functional: follow holders, coloring
  // nodes; re-meeting a node from the current walk closes a cycle.
  //   0 = unvisited, 1 = on the current walk, 2 = finished.
  std::vector<std::uint8_t> color(procs_.size(), 0);
  std::vector<std::string> cycles;
  auto blocked_holder = [&](Pid pid) -> Pid {
    const Proc& p = *procs_[pid];
    if (p.state != ProcState::kBlocked) return kNoPid;
    const Pid held_by = p.WaitHolder();
    if (held_by == kNoPid || held_by >= procs_.size()) return kNoPid;
    return procs_[held_by]->state == ProcState::kBlocked ? held_by : kNoPid;
  };
  for (Pid start = 0; start < procs_.size(); ++start) {
    if (color[start] != 0 || procs_[start]->state != ProcState::kBlocked) {
      continue;
    }
    std::vector<Pid> walk;
    Pid cur = start;
    while (cur != kNoPid && color[cur] == 0) {
      color[cur] = 1;
      walk.push_back(cur);
      cur = blocked_holder(cur);
    }
    if (cur != kNoPid && color[cur] == 1) {
      // cur is on the current walk: the suffix from cur is a cycle.
      std::ostringstream cyc;
      bool in_cycle = false;
      for (Pid pid : walk) {
        if (pid == cur) in_cycle = true;
        if (in_cycle) cyc << procs_[pid]->name << " -> ";
      }
      cyc << procs_[cur]->name;
      cycles.push_back(cyc.str());
    }
    for (Pid pid : walk) color[pid] = 2;
  }

  if (cycles.empty()) {
    oss << "no wait-for cycle among simulated processes (a process waits "
           "on an event that never fires)\n";
  } else {
    for (const std::string& cycle : cycles) {
      oss << "wait-for cycle: " << cycle << "\n";
    }
  }
  oss << "blame:";
  for (const auto& [framework, count] : blame) {
    oss << " " << framework << "=" << count;
  }
  oss << " blocked process(es)\n";
  return oss.str();
}

void Engine::ExecuteBody(Proc& p) {
  Shard& s = *shards_[static_cast<std::size_t>(p.shard)];
  try {
    if (p.kill_requested) throw ProcessKilled{};
    p.body(*p.context);
    p.state = ProcState::kDone;
    ++s.completed;
  } catch (const ProcessKilled&) {
    p.state = ProcState::kKilled;
    ++s.killed;
  } catch (...) {
    p.error = std::current_exception();
    p.state = ProcState::kDone;
    ++s.completed;
  }
}

void Engine::DispatchProc(Shard& s, Pid pid) {
  Proc& p = *procs_[pid];
  PSTK_CHECK(p.state == ProcState::kReady);
  p.clock = std::max(p.clock, p.wake_at);
  s.frontier = std::max(s.frontier, p.clock);
  s.activation = p.clock;
  p.state = ProcState::kRunning;
  s.running = pid;

  obs_.Add(tags_.dispatches);
  const bool traced = obs_.enabled();
  std::chrono::steady_clock::time_point host_start;
  if (traced) {
    obs_.BeginSpan(p.node, pid, tags_.run, p.clock);
    host_start = std::chrono::steady_clock::now();
  }

  s.exec->Resume(*this, p);

  s.running = kNoPid;
  if (traced) {
    // Host-clock dispatch latency (the one intentionally nondeterministic
    // metric; it never enters the trace event stream).
    obs_.Observe(tags_.dispatch_ns,
                 static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - host_start)
                         .count()));
    obs_.EndSpan(p.node, pid, tags_.run, p.clock);
  }
}

void Engine::ProcYieldToEngine(Proc& p) {
  shards_[static_cast<std::size_t>(p.shard)]->exec->Suspend(p);
  CheckKilled(p);
}

void Engine::CheckKilled(Proc& p) {
  if (p.kill_requested) throw ProcessKilled{};
}

SimTime Engine::ProcBlock(Pid pid, std::string_view reason, Pid holder,
                          std::function<Pid()> holder_fn) {
  Proc& p = *procs_[pid];
  PSTK_CHECK(p.state == ProcState::kRunning);
  p.state = ProcState::kBlocked;
  p.wait_reason = reason;
  p.wait_holder = holder;
  p.wait_holder_fn = std::move(holder_fn);
  if (obs_.enabled()) {
    obs_.Instant(p.node, pid, tags_.block, p.clock, obs_.Intern(reason));
  }
  ProcYieldToEngine(p);
  p.wait_holder = kNoPid;
  p.wait_holder_fn = nullptr;
  return p.clock;
}

SimTime Engine::ProcBlockUntil(Pid pid, SimTime t, std::string_view reason) {
  Proc& p = *procs_[pid];
  PSTK_CHECK(p.state == ProcState::kRunning);
  p.wait_reason = reason;
  MakeReady(pid, std::max(t, p.clock));
  ProcYieldToEngine(p);
  return p.clock;
}

bool Engine::StepShard(Shard& s) {
  if (s.fatal.has_value()) return false;
  PruneReady(s);
  const bool has_event = !s.events.empty();
  const bool has_proc = !s.ready.empty();
  if (!has_event && !has_proc) return false;
  const SimTime te = has_event ? s.events.Top().t : kInfinity;
  const SimTime tp = has_proc ? s.ready.Top().t : kInfinity;
  if (std::min(te, tp) >= s.bound) return false;  // conservative horizon
  if (te <= tp) {
    const std::uint64_t seq = s.events.Top().seq;
    const bool wake_delivery = s.events.Top().wake_delivery;
    auto fn = std::move(s.events.MutableTop().fn);
    s.events.PopTop();
    s.frontier = std::max(s.frontier, te);
    s.activation = te;
    if (!wake_delivery) obs_.Add(tags_.events);
    obs_.MarkBlock(te, /*kind=*/0, seq);
    fn();
  } else {
    const Pid pid = s.ready.Top().pid;
    s.ready.PopTop();
    obs_.MarkBlock(tp, /*kind=*/1, pid);
    DispatchProc(s, pid);
    s.frontier = std::max(s.frontier, procs_[pid]->clock);
    if (procs_[pid]->error != nullptr) {
      s.fatal = Shard::Fatal{procs_[pid]->clock, pid, procs_[pid]->error};
      return false;
    }
  }
  return true;
}

RunResult Engine::Run() {
  PSTK_CHECK_MSG(!running_loop_, "Engine::Run is not reentrant");
  running_loop_ = true;
  if (shard_count() > 1) {
    RunResult result = RunSharded();
    running_loop_ = false;
    return result;
  }
  Shard& s = *shards_[0];
  s.bound = kInfinity;
  while (StepShard(s)) {
  }
  running_loop_ = false;
  return RunEpilogue(s.fatal.has_value() ? s.fatal->error : nullptr);
}

RunResult Engine::RunEpilogue(std::exception_ptr fatal) {
  RunResult result;
  result.end_time = now();
  for (const auto& s : shards_) {
    result.completed += s->completed;
    result.killed += s->killed;
  }

  if (fatal != nullptr) {
    JoinAll();
    std::rethrow_exception(fatal);
  }

  std::size_t blocked = 0;
  for (const auto& p : procs_) {
    if (p->state == ProcState::kBlocked) ++blocked;
  }
  if (blocked > 0) {
    const std::string report = DeadlockReport();
    if (verify_.active()) {
      // A deadlock after fault injection is the expected teardown of a
      // non-fault-tolerant job, not a usage bug — downgrade to a warning.
      verify_.Report(verify::Finding{
          result.killed > 0 ? verify::Severity::kWarning
                            : verify::Severity::kError,
          "deadlock", "sim-deadlock", report, "", result.end_time});
    }
    result.status = Internal("simulation deadlock; " + report);
    // JoinAll force-unwinds the blocked processes, but those deaths are
    // cleanup, not simulated faults — result.killed keeps the pre-teardown
    // count.
    JoinAll();
  } else {
    result.status = OkStatus();
  }
  return result;
}

void Engine::JoinAll() {
  for (auto& proc : procs_) {
    Proc& p = *proc;
    if (p.state == ProcState::kBlocked || p.state == ProcState::kReady) {
      p.kill_requested = true;
    }
    shards_[static_cast<std::size_t>(p.shard)]->exec->Unwind(*this, p);
  }
}

}  // namespace pstk::sim
