// BasicForwardingEnv — a dmt::Env that owns another Env and forwards every
// virtual to it unchanged, calling a hook policy around each call.
//
// The benchmark wraps the runtime's Env in one of these so it can observe
// the workload from outside the runtime. The plain ForwardingEnv uses
// NoHooks, which compiles away: it only stamps the first Spawn (the end of
// set-up) and takes the CPU time of the calls made before it. TracingEnv
// (tracing_env.h)
// uses a span recorder that times every call per thread. Every dmt::Env
// virtual must be forwarded here — a missed one silently falls back to
// Env's default (e.g. TryMalloc → Malloc) and changes what the runtime
// sees. forwarding_env_test.cpp pins that with a probe Env.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include <time.h>

#include "rfdet/api/env.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// CPU time of the whole process so far. Unlike wall time it leaves out
// the time the host steals from a virtual machine's vCPUs and the time
// other processes hold the CPU.
inline double ProcessCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

// Every dmt::Env virtual, with the API layer TracingEnv charges it to.
#define PERFBENCH_ENV_CALLS(X)                                             \
  X(Name, kMisc)                                                           \
  X(Deterministic, kMisc)                                                  \
  X(Tid, kMisc)                                                            \
  X(AllocStatic, kAlloc)                                                   \
  X(Malloc, kAlloc)                                                        \
  X(Free, kAlloc)                                                          \
  X(TryMalloc, kAlloc)                                                     \
  X(Store, kMem)                                                           \
  X(Load, kMem)                                                            \
  X(Tick, kTick)                                                           \
  X(Spawn, kThread)                                                        \
  X(TrySpawn, kThread)                                                     \
  X(Join, kThread)                                                         \
  X(AtomicLoad, kAtomic)                                                   \
  X(AtomicStore, kAtomic)                                                  \
  X(AtomicFetchAdd, kAtomic)                                               \
  X(AtomicCas, kAtomic)                                                    \
  X(CreateMutex, kSync)                                                    \
  X(CreateCond, kSync)                                                     \
  X(CreateBarrier, kSync)                                                  \
  X(Lock, kSync)                                                           \
  X(Unlock, kSync)                                                         \
  X(Wait, kSync)                                                           \
  X(Signal, kSync)                                                         \
  X(Broadcast, kSync)                                                      \
  X(Barrier, kSync)                                                        \
  X(ExecDefaults, kMisc)                                                   \
  X(NoteExec, kMisc)                                                       \
  X(Stats, kMisc)                                                          \
  X(FootprintBytes, kMisc)                                                 \
  X(FinalizeFingerprint, kMisc)                                            \
  X(LastDivergenceReport, kMisc)                                           \
  X(RaceReportText, kMisc)                                                 \
  X(Checkpoint, kMisc)                                                     \
  X(Restored, kMisc)

enum class Call : uint8_t {
#define PERFBENCH_CALL_ENUM(name, layer) k##name,
  PERFBENCH_ENV_CALLS(PERFBENCH_CALL_ENUM)
#undef PERFBENCH_CALL_ENUM
      kCount
};
inline constexpr size_t kCallCount = static_cast<size_t>(Call::kCount);

// The hook policy of the plain forwarder. A policy's Scope lives for the
// duration of one forwarded call; Spawn passes the thread body through
// Adopt and reports the new tid to Spawned, Join reports its target to
// Joining.
struct NoHooks {
  struct Scope {
    Scope(NoHooks& /*hooks*/, Call /*call*/) {}
    std::function<void()> Adopt(std::function<void()> fn) { return fn; }
    void Spawned(size_t /*tid*/) {}
    void Joining(size_t /*tid*/) {}
  };
};

template <class Hooks>
class BasicForwardingEnv final : public dmt::Env {
 public:
  template <class... HookArgs>
  explicit BasicForwardingEnv(std::unique_ptr<dmt::Env> inner,
                              HookArgs&&... hook_args)
      : hooks_(std::forward<HookArgs>(hook_args)...),
        inner_(std::move(inner)) {}

  BasicForwardingEnv(const BasicForwardingEnv&) = delete;
  BasicForwardingEnv& operator=(const BasicForwardingEnv&) = delete;

  [[nodiscard]] Hooks& hooks() { return hooks_; }

  // Time of the first Spawn/TrySpawn call, or Clock::time_point{} if no
  // thread was spawned yet.
  [[nodiscard]] Clock::time_point FirstSpawn() const {
    return Clock::time_point(
        Clock::duration(first_spawn_.load(std::memory_order_acquire)));
  }
  // CPU time spent inside the calls made before the first Spawn: the
  // runtime's share of set-up, without the workload's own work between
  // the calls. Read once the first Spawn has happened.
  [[nodiscard]] double SetupCpuSeconds() const { return setup_cpu_s_; }

  [[nodiscard]] std::string Name() const override {
    Guard g(*this, Call::kName);
    return inner_->Name();
  }
  [[nodiscard]] bool Deterministic() const override {
    Guard g(*this, Call::kDeterministic);
    return inner_->Deterministic();
  }
  [[nodiscard]] size_t Tid() const override {
    Guard g(*this, Call::kTid);
    return inner_->Tid();
  }

  dmt::GAddr AllocStatic(size_t bytes, size_t align) override {
    Guard g(*this, Call::kAllocStatic);
    return inner_->AllocStatic(bytes, align);
  }
  dmt::GAddr Malloc(size_t bytes) override {
    Guard g(*this, Call::kMalloc);
    return inner_->Malloc(bytes);
  }
  void Free(dmt::GAddr addr) override {
    Guard g(*this, Call::kFree);
    inner_->Free(addr);
  }
  void Store(dmt::GAddr addr, const void* src, size_t len) override {
    Guard g(*this, Call::kStore);
    inner_->Store(addr, src, len);
  }
  void Load(dmt::GAddr addr, void* dst, size_t len) override {
    Guard g(*this, Call::kLoad);
    inner_->Load(addr, dst, len);
  }
  void Tick(uint64_t words) override {
    Guard g(*this, Call::kTick);
    inner_->Tick(words);
  }
  dmt::GAddr TryMalloc(size_t bytes) override {
    Guard g(*this, Call::kTryMalloc);
    return inner_->TryMalloc(bytes);
  }

  size_t Spawn(std::function<void()> fn) override {
    NoteSpawn();
    Guard g(*this, Call::kSpawn);
    const size_t tid = inner_->Spawn(g.Adopt(std::move(fn)));
    g.Spawned(tid);
    return tid;
  }
  int TrySpawn(std::function<void()> fn, size_t* out_tid) override {
    NoteSpawn();
    Guard g(*this, Call::kTrySpawn);
    const int err = inner_->TrySpawn(g.Adopt(std::move(fn)), out_tid);
    if (err == 0) g.Spawned(*out_tid);
    return err;
  }
  void Join(size_t tid) override {
    Guard g(*this, Call::kJoin);
    g.Joining(tid);
    inner_->Join(tid);
  }

  uint64_t AtomicLoad(dmt::GAddr addr) override {
    Guard g(*this, Call::kAtomicLoad);
    return inner_->AtomicLoad(addr);
  }
  void AtomicStore(dmt::GAddr addr, uint64_t value) override {
    Guard g(*this, Call::kAtomicStore);
    inner_->AtomicStore(addr, value);
  }
  uint64_t AtomicFetchAdd(dmt::GAddr addr, uint64_t delta) override {
    Guard g(*this, Call::kAtomicFetchAdd);
    return inner_->AtomicFetchAdd(addr, delta);
  }
  bool AtomicCas(dmt::GAddr addr, uint64_t& expected,
                 uint64_t desired) override {
    Guard g(*this, Call::kAtomicCas);
    return inner_->AtomicCas(addr, expected, desired);
  }

  size_t CreateMutex() override {
    Guard g(*this, Call::kCreateMutex);
    return inner_->CreateMutex();
  }
  size_t CreateCond() override {
    Guard g(*this, Call::kCreateCond);
    return inner_->CreateCond();
  }
  size_t CreateBarrier(size_t parties) override {
    Guard g(*this, Call::kCreateBarrier);
    return inner_->CreateBarrier(parties);
  }
  void Lock(size_t id) override {
    Guard g(*this, Call::kLock);
    inner_->Lock(id);
  }
  void Unlock(size_t id) override {
    Guard g(*this, Call::kUnlock);
    inner_->Unlock(id);
  }
  void Wait(size_t cond_id, size_t mutex_id) override {
    Guard g(*this, Call::kWait);
    inner_->Wait(cond_id, mutex_id);
  }
  void Signal(size_t cond_id) override {
    Guard g(*this, Call::kSignal);
    inner_->Signal(cond_id);
  }
  void Broadcast(size_t cond_id) override {
    Guard g(*this, Call::kBroadcast);
    inner_->Broadcast(cond_id);
  }
  void Barrier(size_t barrier_id) override {
    Guard g(*this, Call::kBarrier);
    inner_->Barrier(barrier_id);
  }

  [[nodiscard]] dmt::ExecHints ExecDefaults() const override {
    Guard g(*this, Call::kExecDefaults);
    return inner_->ExecDefaults();
  }
  void NoteExec(rfdet::ExecEvent event, uint64_t n) override {
    Guard g(*this, Call::kNoteExec);
    inner_->NoteExec(event, n);
  }

  [[nodiscard]] rfdet::StatsSnapshot Stats() const override {
    Guard g(*this, Call::kStats);
    return inner_->Stats();
  }
  [[nodiscard]] size_t FootprintBytes() const override {
    Guard g(*this, Call::kFootprintBytes);
    return inner_->FootprintBytes();
  }
  uint64_t FinalizeFingerprint() override {
    Guard g(*this, Call::kFinalizeFingerprint);
    return inner_->FinalizeFingerprint();
  }
  [[nodiscard]] std::string LastDivergenceReport() const override {
    Guard g(*this, Call::kLastDivergenceReport);
    return inner_->LastDivergenceReport();
  }
  [[nodiscard]] std::string RaceReportText() const override {
    Guard g(*this, Call::kRaceReportText);
    return inner_->RaceReportText();
  }
  bool Checkpoint() override {
    Guard g(*this, Call::kCheckpoint);
    return inner_->Checkpoint();
  }
  [[nodiscard]] bool Restored() const override {
    Guard g(*this, Call::kRestored);
    return inner_->Restored();
  }

 private:
  // The hooks' scope for one call, plus the set-up timer: before the
  // first Spawn only the constructing thread calls in, so the sum needs
  // no lock, and afterwards a call pays one relaxed load.
  class Guard : public Hooks::Scope {
   public:
    Guard(const BasicForwardingEnv& env, Call call)
        : Hooks::Scope(env.hooks_, call),
          env_(env),
          in_setup_(env.in_setup_.load(std::memory_order_relaxed)),
          start_cpu_s_(in_setup_ ? ProcessCpuSeconds() : 0) {}
    ~Guard() {
      if (in_setup_) env_.setup_cpu_s_ += ProcessCpuSeconds() - start_cpu_s_;
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    const BasicForwardingEnv& env_;
    const bool in_setup_;
    const double start_cpu_s_;
  };

  // Ends set-up; called before the Spawn's Guard so the spawn itself is
  // not counted as set-up.
  void NoteSpawn() {
    in_setup_.store(false, std::memory_order_relaxed);
    int64_t expected = 0;
    first_spawn_.compare_exchange_strong(
        expected, Clock::now().time_since_epoch().count(),
        std::memory_order_acq_rel);
  }

  // Declared before inner_ so the hooks outlive the wrapped Env's
  // destructor, which may still end threads the hooks observe.
  mutable Hooks hooks_;
  std::unique_ptr<dmt::Env> inner_;
  std::atomic<int64_t> first_spawn_{0};
  std::atomic<bool> in_setup_{true};
  mutable double setup_cpu_s_ = 0;
};

using ForwardingEnv = BasicForwardingEnv<NoHooks>;

}  // namespace perfbench
