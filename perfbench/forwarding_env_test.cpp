// Transparency test for the benchmark's forwarding Envs.
//
// 1. Every dmt::Env virtual, called through ForwardingEnv and TracingEnv,
//    reaches the same virtual of the wrapped Env exactly once (a missing
//    override would fall back to Env's default — TryMalloc → Malloc,
//    ExecDefaults → {}, Stats → {} — and show up here), and results and
//    out-parameters come back unchanged. TracingEnv records one span per
//    call, of the right kind, and keeps a spawned thread's exit work
//    (after its body returns) and the main thread's wait in Join; work
//    on a new thread before its body runs shows as a ledger gap.
// 2. Each benchmark workload, and lu-con on rfdet-ci, at a small scale,
//    gives the same signature and the same exactly-repeating counters
//    through TracingEnv as through ForwardingEnv.
//
// Exits 0 when every check passes; prints each failure to stderr.
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "forwarding_env.h"
#include "rfdet/apps/workload.h"
#include "rfdet/backends/backends.h"
#include "tracing_env.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__,   \
                   #cond);                                               \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

// How long a probe thread runs before its body starts and after it
// returns, as a runtime's thread start-up and exit work would.
constexpr auto kProbeStart = std::chrono::milliseconds(10);
constexpr auto kProbeExit = std::chrono::milliseconds(20);
constexpr double kProbeStoreCpu = 0.002;

// An Env that counts every virtual and returns distinctive values.
class ProbeEnv final : public dmt::Env {
 public:
  ~ProbeEnv() override {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  [[nodiscard]] int HitsOf(Call c) const {
    return hits_[static_cast<size_t>(c)];
  }
  [[nodiscard]] int TotalHits() const {
    int total = 0;
    for (const int h : hits_) total += h;
    return total;
  }

  std::string Name() const override { return Hit(Call::kName), "probe"; }
  bool Deterministic() const override {
    return Hit(Call::kDeterministic), true;
  }
  size_t Tid() const override { return Hit(Call::kTid), 7; }
  dmt::GAddr AllocStatic(size_t bytes, size_t align) override {
    return Hit(Call::kAllocStatic), 1000 + bytes + align;
  }
  dmt::GAddr Malloc(size_t bytes) override {
    return Hit(Call::kMalloc), 2000 + bytes;
  }
  void Free(dmt::GAddr) override { Hit(Call::kFree); }
  // Burns kProbeStoreCpu of CPU time, so set-up timing has work to see.
  void Store(dmt::GAddr, const void*, size_t) override {
    Hit(Call::kStore);
    const double until = ProcessCpuSeconds() + kProbeStoreCpu;
    while (ProcessCpuSeconds() < until) {
    }
  }
  void Load(dmt::GAddr, void* dst, size_t len) override {
    Hit(Call::kLoad);
    if (len > 0) *static_cast<unsigned char*>(dst) = 0x5a;
  }
  void Tick(uint64_t) override { Hit(Call::kTick); }
  dmt::GAddr TryMalloc(size_t bytes) override {
    return Hit(Call::kTryMalloc), 3000 + bytes;
  }
  size_t Spawn(std::function<void()> fn) override {
    Hit(Call::kSpawn);
    Start(std::move(fn));
    return threads_.size();
  }
  int TrySpawn(std::function<void()> fn, size_t* out_tid) override {
    Hit(Call::kTrySpawn);
    Start(std::move(fn));
    *out_tid = threads_.size();
    return 11;
  }
  void Join(size_t tid) override {
    Hit(Call::kJoin);
    threads_.at(tid - 1).join();
  }
  uint64_t AtomicLoad(dmt::GAddr) override {
    return Hit(Call::kAtomicLoad), 41;
  }
  void AtomicStore(dmt::GAddr, uint64_t) override { Hit(Call::kAtomicStore); }
  uint64_t AtomicFetchAdd(dmt::GAddr, uint64_t delta) override {
    return Hit(Call::kAtomicFetchAdd), 50 + delta;
  }
  bool AtomicCas(dmt::GAddr, uint64_t& expected, uint64_t) override {
    Hit(Call::kAtomicCas);
    expected = 99;
    return false;
  }
  size_t CreateMutex() override { return Hit(Call::kCreateMutex), 21; }
  size_t CreateCond() override { return Hit(Call::kCreateCond), 22; }
  size_t CreateBarrier(size_t parties) override {
    return Hit(Call::kCreateBarrier), 100 + parties;
  }
  void Lock(size_t) override { Hit(Call::kLock); }
  void Unlock(size_t) override { Hit(Call::kUnlock); }
  void Wait(size_t, size_t) override { Hit(Call::kWait); }
  void Signal(size_t) override { Hit(Call::kSignal); }
  void Broadcast(size_t) override { Hit(Call::kBroadcast); }
  void Barrier(size_t) override { Hit(Call::kBarrier); }
  dmt::ExecHints ExecDefaults() const override {
    Hit(Call::kExecDefaults);
    return dmt::ExecHints{.pool_threads = 5, .grain = 6, .donation = false};
  }
  void NoteExec(rfdet::ExecEvent, uint64_t) override {
    Hit(Call::kNoteExec);
  }
  rfdet::StatsSnapshot Stats() const override {
    Hit(Call::kStats);
    rfdet::StatsSnapshot s;
    s.locks = 77;
    return s;
  }
  size_t FootprintBytes() const override {
    return Hit(Call::kFootprintBytes), 4096;
  }
  uint64_t FinalizeFingerprint() override {
    return Hit(Call::kFinalizeFingerprint), 0xf00d;
  }
  std::string LastDivergenceReport() const override {
    return Hit(Call::kLastDivergenceReport), "diverged";
  }
  std::string RaceReportText() const override {
    return Hit(Call::kRaceReportText), "races";
  }
  bool Checkpoint() override { return Hit(Call::kCheckpoint), true; }
  bool Restored() const override { return Hit(Call::kRestored), true; }

 private:
  void Hit(Call c) const { ++hits_[static_cast<size_t>(c)]; }
  void Start(std::function<void()> fn) {
    threads_.emplace_back([fn = std::move(fn)] {
      std::this_thread::sleep_for(kProbeStart);
      fn();
      std::this_thread::sleep_for(kProbeExit);
    });
  }

  mutable std::array<int, kCallCount> hits_{};
  std::vector<std::thread> threads_;
};

// Calls `c` on env (through the base class, as a workload would) and
// checks the result the probe is known to return.
void Invoke(dmt::Env& env, Call c, std::atomic<int>* ran) {
  switch (c) {
    case Call::kName: EXPECT(env.Name() == "probe"); break;
    case Call::kDeterministic: EXPECT(env.Deterministic()); break;
    case Call::kTid: EXPECT(env.Tid() == 7); break;
    case Call::kAllocStatic: EXPECT(env.AllocStatic(8, 64) == 1072); break;
    case Call::kMalloc: EXPECT(env.Malloc(5) == 2005); break;
    case Call::kFree: env.Free(1); break;
    case Call::kStore: {
      const int v = 3;
      env.Store(1, &v, sizeof v);
      break;
    }
    case Call::kLoad: {
      unsigned char b = 0;
      env.Load(1, &b, 1);
      EXPECT(b == 0x5a);
      break;
    }
    case Call::kTick: env.Tick(9); break;
    case Call::kTryMalloc: EXPECT(env.TryMalloc(5) == 3005); break;
    case Call::kSpawn: {
      const size_t tid = env.Spawn([ran] { ++*ran; });
      EXPECT(tid == 1);
      break;
    }
    case Call::kTrySpawn: {
      size_t tid = 0;
      EXPECT(env.TrySpawn([ran] { ++*ran; }, &tid) == 11);
      EXPECT(tid == 2);
      break;
    }
    case Call::kJoin: env.Join(1); env.Join(2); break;
    case Call::kAtomicLoad: EXPECT(env.AtomicLoad(8) == 41); break;
    case Call::kAtomicStore: env.AtomicStore(8, 1); break;
    case Call::kAtomicFetchAdd: EXPECT(env.AtomicFetchAdd(8, 2) == 52); break;
    case Call::kAtomicCas: {
      uint64_t expected = 1;
      EXPECT(!env.AtomicCas(8, expected, 2));
      EXPECT(expected == 99);
      break;
    }
    case Call::kCreateMutex: EXPECT(env.CreateMutex() == 21); break;
    case Call::kCreateCond: EXPECT(env.CreateCond() == 22); break;
    case Call::kCreateBarrier: EXPECT(env.CreateBarrier(3) == 103); break;
    case Call::kLock: env.Lock(1); break;
    case Call::kUnlock: env.Unlock(1); break;
    case Call::kWait: env.Wait(1, 2); break;
    case Call::kSignal: env.Signal(1); break;
    case Call::kBroadcast: env.Broadcast(1); break;
    case Call::kBarrier: env.Barrier(1); break;
    case Call::kExecDefaults: {
      const dmt::ExecHints h = env.ExecDefaults();
      EXPECT(h.pool_threads == 5 && h.grain == 6 && !h.donation);
      break;
    }
    case Call::kNoteExec: env.NoteExec(rfdet::ExecEvent::kItem, 1); break;
    case Call::kStats: EXPECT(env.Stats().locks == 77); break;
    case Call::kFootprintBytes: EXPECT(env.FootprintBytes() == 4096); break;
    case Call::kFinalizeFingerprint:
      EXPECT(env.FinalizeFingerprint() == 0xf00d);
      break;
    case Call::kLastDivergenceReport:
      EXPECT(env.LastDivergenceReport() == "diverged");
      break;
    case Call::kRaceReportText: EXPECT(env.RaceReportText() == "races"); break;
    case Call::kCheckpoint: EXPECT(env.Checkpoint()); break;
    case Call::kRestored: EXPECT(env.Restored()); break;
    case Call::kCount: break;
  }
}

// Every call through `wrapper` reaches exactly the matching probe virtual.
void CheckForwardsEveryCall(dmt::Env& wrapper, const ProbeEnv& probe) {
  std::atomic<int> ran{0};
  for (size_t i = 0; i < kCallCount; ++i) {
    const Call c = static_cast<Call>(i);
    const int before = probe.TotalHits();
    Invoke(wrapper, c, &ran);
    const int expected = c == Call::kJoin ? 2 : 1;  // Invoke joins twice
    if (probe.HitsOf(c) != expected || probe.TotalHits() != before + expected) {
      std::fprintf(stderr, "%s not forwarded to the same virtual\n",
                   std::string(CallName(c)).c_str());
      ++g_failures;
    }
  }
  EXPECT(ran == 2);  // both spawned bodies ran
}

void TestForwardingEnv() {
  auto probe = std::make_unique<ProbeEnv>();
  const ProbeEnv& p = *probe;
  ForwardingEnv env(std::move(probe));
  const Clock::time_point before = Clock::now();
  CheckForwardsEveryCall(env, p);
  EXPECT(env.FirstSpawn() >= before);
}

void TestTracingEnv() {
  auto probe = std::make_unique<ProbeEnv>();
  const ProbeEnv& p = *probe;
  TracingEnv env(std::move(probe));
  CheckForwardsEveryCall(env, p);
  const Ledger ledger = env.hooks().Finish();
  for (size_t i = 0; i < kCallCount; ++i) {
    const Call c = static_cast<Call>(i);
    const uint64_t expected = c == Call::kJoin ? 2 : 1;
    if (ledger.calls[i] != expected) {
      std::fprintf(stderr, "%s: %llu spans, expected %llu\n",
                   std::string(CallName(c)).c_str(),
                   static_cast<unsigned long long>(ledger.calls[i]),
                   static_cast<unsigned long long>(expected));
      ++g_failures;
    }
  }
  EXPECT(ledger.threads == 3);  // main + the two spawned threads
  EXPECT(ledger.lifetime_s > 0);
  // One thread's spans never overlap: spans + compute = lifetime.
  EXPECT(std::abs(ledger.accounted_s - ledger.lifetime_s) <
         1e-9 * ledger.lifetime_s);
  // Both spawned threads' exit work is in the ledger, and Join(1), made
  // while thread 1 was still exiting, waited for it.
  const double exit_s = std::chrono::duration<double>(kProbeExit).count();
  EXPECT(ledger.layer_calls[static_cast<size_t>(Layer::kExit)] == 2);
  EXPECT(ledger.layer_s[static_cast<size_t>(Layer::kExit)] >= 2 * exit_s);
  EXPECT(ledger.join_wait_s > 0);
  // Start-up before the bodies is in the threads' windows but no layer.
  const double start_s = std::chrono::duration<double>(kProbeStart).count();
  EXPECT(ledger.window_s - ledger.accounted_s >= 2 * start_s);
  EXPECT(ledger.gap_share > 0);
}

// The set-up timer counts the CPU time of the calls before the first
// Spawn, and only them.
void TestSetupCalls() {
  auto probe = std::make_unique<ProbeEnv>();
  ForwardingEnv env(std::move(probe));
  const int v = 1;
  EXPECT(env.SetupCpuSeconds() == 0);
  env.Store(1, &v, sizeof v);
  const double before_spawn = env.SetupCpuSeconds();
  EXPECT(before_spawn >= kProbeStoreCpu);
  env.Join(env.Spawn([] {}));
  env.Store(1, &v, sizeof v);
  EXPECT(env.SetupCpuSeconds() == before_spawn);
}

struct Observed {
  uint64_t signature;
  uint64_t slices_created, slices_propagated, bytes_propagated;
  uint64_t pages_diffed, locks;
  bool operator==(const Observed&) const = default;
};

Observed RunWorkload(const apps::Workload& w, dmt::BackendKind kind,
                     bool traced) {
  dmt::BackendConfig config;
  config.kind = kind;
  config.turn_wait = "park";
  apps::Params params;
  params.threads = 3;
  params.seed = 5;
  params.scale = 1;
  std::unique_ptr<dmt::Env> env;
  if (traced) {
    env = std::make_unique<TracingEnv>(dmt::CreateEnv(config));
  } else {
    env = std::make_unique<ForwardingEnv>(dmt::CreateEnv(config));
  }
  const uint64_t sig = w.Run(*env, params).signature;
  const rfdet::StatsSnapshot s = env->Stats();
  return Observed{sig,           s.slices_created, s.slices_propagated,
                  s.bytes_propagated, s.pages_diffed, s.locks};
}

void TestWorkloadsTransparent() {
  const struct {
    const char* app;
    dmt::BackendKind kind;
  } kCases[] = {
      {"dedup", dmt::BackendKind::kRfdetCi},
      {"lu-con", dmt::BackendKind::kRfdetCi},
      {"lu-con", dmt::BackendKind::kRfdetPf},
      {"bfs", dmt::BackendKind::kRfdetCi},
  };
  for (const auto& c : kCases) {
    const apps::Workload* w = apps::FindWorkload(c.app);
    EXPECT(w != nullptr);
    if (w == nullptr) continue;
    const Observed plain = RunWorkload(*w, c.kind, false);
    const Observed traced = RunWorkload(*w, c.kind, true);
    if (!(plain == traced)) {
      std::fprintf(stderr, "%s on %s: traced run differs from untraced\n",
                   c.app, std::string(dmt::ToString(c.kind)).c_str());
      ++g_failures;
    }
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestForwardingEnv();
  perfbench::TestTracingEnv();
  perfbench::TestSetupCalls();
  perfbench::TestWorkloadsTransparent();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "forwarding_env_test: %d failure(s)\n",
                 perfbench::g_failures);
    return 1;
  }
  std::printf("forwarding_env_test: ok\n");
  return 0;
}
