// TracingEnv — a forwarding Env that times every public dmt::Env call.
//
// Its hook policy, SpanRecorder, keeps one span list (call kind, start,
// end) per thread in memory; Finish() folds the lists into a Ledger once
// the workload has returned. Calls are charged to the API layer their kind
// belongs to (sync, atomic, mem, alloc, thread, tick, misc). A spawned
// thread's lifetime runs from the first instruction of its body to the
// end of its host thread, so the runtime's thread-exit work after the
// body returns (last slice close, the exit turn) is kept too, as the
// thread's exit stretch (layer "exit"). The main thread's lifetime runs
// from construction to Finish(). A thread's compute time is the part of
// its lifetime that no span or exit stretch covers.
//
// The ledger is checked against wall time the spans do not define: a
// spawned thread's window opens when the Spawn call that creates it
// starts, so host-thread creation and whatever the runtime does on the
// new thread before the body runs fall in the window but in no layer.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "forwarding_env.h"

namespace perfbench {

enum class Layer : uint8_t {
  kSync, kAtomic, kMem, kAlloc, kThread, kTick, kMisc,
  kExit,  // not a call: a spawned thread's end, from body return to exit
  kCount
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

[[nodiscard]] std::string_view LayerName(Layer layer);
[[nodiscard]] std::string_view CallName(Call call);

// Per-run fold of every thread's spans. Times are summed over threads.
struct Ledger {
  std::array<double, kLayerCount> layer_s{};
  std::array<uint64_t, kLayerCount> layer_calls{};
  std::array<uint64_t, kCallCount> calls{};
  double compute_s = 0;    // lifetime covered by no span
  double lifetime_s = 0;   // Σ thread lifetimes
  double accounted_s = 0;  // Σ spans + compute_s; = lifetime_s unless
                           // spans of one thread overlap
  // Σ thread windows: main from construction to Finish(), a spawned
  // thread from the start of its Spawn call to the end of its host thread.
  double window_s = 0;
  // Main-thread time in Join while the joined thread was still alive:
  // waiting for it, not runtime work.
  double join_wait_s = 0;
  size_t threads = 0;
  // |window_s − accounted_s| / window_s: the share of the threads' wall
  // time no layer accounts for (thread start-up, runtime work before a
  // body runs), or counts twice (re-entrant calls).
  double gap_share = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();
  ~SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Ends the main thread's lifetime and folds all spans. Call from the
  // main thread once every spawned thread has been joined.
  [[nodiscard]] Ledger Finish();

  struct ThreadLog;

  // Records one span for the enclosing call on the calling thread's log.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, Call call);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Wraps a thread body so the new thread logs under a fresh ThreadLog.
    std::function<void()> Adopt(std::function<void()> fn);
    void Spawned(size_t tid);
    void Joining(size_t tid);

   private:
    SpanRecorder& recorder_;
    ThreadLog& log_;
    ThreadLog* child_ = nullptr;
    size_t target_;
    const Call call_;
    const int64_t start_ns_;
  };

 private:
  // The calling thread's log, registering the thread on first use.
  ThreadLog& LogForThisThread();
  ThreadLog& NewLog();

  const uint64_t id_;
  std::mutex logs_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded
};

using TracingEnv = BasicForwardingEnv<SpanRecorder>;

}  // namespace perfbench
