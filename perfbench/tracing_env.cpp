#include "tracing_env.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace perfbench {

namespace {

constexpr size_t kNoTid = std::numeric_limits<size_t>::max();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

constexpr Layer kLayerOfCall[] = {
#define PERFBENCH_CALL_LAYER(name, layer) Layer::layer,
    PERFBENCH_ENV_CALLS(PERFBENCH_CALL_LAYER)
#undef PERFBENCH_CALL_LAYER
};
static_assert(std::size(kLayerOfCall) == kCallCount);

constexpr std::string_view kCallNames[] = {
#define PERFBENCH_CALL_NAME(name, layer) #name,
    PERFBENCH_ENV_CALLS(PERFBENCH_CALL_NAME)
#undef PERFBENCH_CALL_NAME
};

constexpr std::string_view kLayerNames[] = {
    "sync", "atomic", "mem", "alloc", "thread", "tick", "misc", "exit"};
static_assert(std::size(kLayerNames) == kLayerCount);

}  // namespace

std::string_view LayerName(Layer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}
std::string_view CallName(Call call) {
  return kCallNames[static_cast<size_t>(call)];
}

struct SpanRecorder::ThreadLog {
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    size_t target;  // Join: the joined tid
    Call call;
  };
  int64_t opened_ns = 0;    // start of the Spawn call (main: born_ns)
  int64_t born_ns = 0;      // 0 until the thread runs
  int64_t body_end_ns = 0;  // spawned threads: the body returned
  int64_t died_ns = 0;      // spawned threads: the host thread ended
  size_t tid = kNoTid;      // spawned threads: the Env's tid
  std::vector<Span> spans;
};

namespace {

// The calling thread's log under the recorder with id tls_recorder_id.
// Ids are never reused, so a thread that outlives one recorder never
// writes into the next one's logs.
thread_local uint64_t tls_recorder_id = 0;
thread_local SpanRecorder::ThreadLog* tls_log = nullptr;

// Stamps the end of a spawned thread when its host thread exits, after
// the runtime's own thread-exit work. The runtimes give every spawned
// body its own host thread and join it in Join (or on destruction,
// before the recorder goes), so the stamp is read only after it is
// written.
struct ExitStamp {
  SpanRecorder::ThreadLog* log = nullptr;
  ~ExitStamp() {
    if (log != nullptr) log->died_ns = NowNs();
  }
};
thread_local ExitStamp tls_exit;

}  // namespace

SpanRecorder::SpanRecorder() : id_(NextRecorderId()) {
  ThreadLog& main = NewLog();
  main.opened_ns = main.born_ns = NowNs();
  tls_recorder_id = id_;
  tls_log = &main;
}

SpanRecorder::~SpanRecorder() {
  if (tls_recorder_id == id_) {
    tls_recorder_id = 0;
    tls_log = nullptr;
  }
}

SpanRecorder::ThreadLog& SpanRecorder::NewLog() {
  std::lock_guard<std::mutex> lock(logs_mu_);
  logs_.push_back(std::make_unique<ThreadLog>());
  return *logs_.back();
}

SpanRecorder::ThreadLog& SpanRecorder::LogForThisThread() {
  if (tls_recorder_id == id_) return *tls_log;
  // A thread this Env did not spawn: its lifetime is the stretch its
  // own calls cover (Finish fills in the end).
  ThreadLog& log = NewLog();
  log.opened_ns = log.born_ns = NowNs();
  tls_recorder_id = id_;
  tls_log = &log;
  return log;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, Call call)
    : recorder_(recorder),
      log_(recorder.LogForThisThread()),
      target_(kNoTid),
      call_(call),
      start_ns_(NowNs()) {}

SpanRecorder::Scope::~Scope() {
  log_.spans.push_back(ThreadLog::Span{start_ns_, NowNs(), target_, call_});
}

std::function<void()> SpanRecorder::Scope::Adopt(std::function<void()> fn) {
  child_ = &recorder_.NewLog();
  child_->opened_ns = start_ns_;
  return [id = recorder_.id_, log = child_, fn = std::move(fn)] {
    tls_recorder_id = id;
    tls_log = log;
    log->born_ns = NowNs();
    fn();
    log->body_end_ns = NowNs();
    tls_exit.log = log;
  };
}

void SpanRecorder::Scope::Spawned(size_t tid) {
  if (child_ != nullptr) child_->tid = tid;
}

void SpanRecorder::Scope::Joining(size_t tid) { target_ = tid; }

Ledger SpanRecorder::Finish() {
  ThreadLog& main = LogForThisThread();
  main.died_ns = NowNs();
  Ledger ledger;
  std::lock_guard<std::mutex> lock(logs_mu_);
  // A thread whose end was not stamped (not spawned by this Env, or its
  // host thread still running) ends at its last span or body return.
  std::map<size_t, const ThreadLog*> by_tid;
  for (const auto& log : logs_) {
    if (log->born_ns == 0) continue;  // spawn failed; never ran
    if (log->died_ns == 0) log->died_ns = log->body_end_ns;
    for (const ThreadLog::Span& s : log->spans) {
      log->died_ns = std::max(log->died_ns, s.end_ns);
    }
    if (log->tid != kNoTid) by_tid[log->tid] = log.get();
  }
  int64_t join_wait_ns = 0;
  for (const auto& log : logs_) {
    if (log->born_ns == 0) continue;
    std::vector<ThreadLog::Span>& spans = log->spans;
    std::sort(spans.begin(), spans.end(),
              [](const ThreadLog::Span& a, const ThreadLog::Span& b) {
                return a.start_ns < b.start_ns;
              });
    auto charge = [&](Layer layer, int64_t start_ns, int64_t end_ns) {
      const double d = static_cast<double>(end_ns - start_ns) * 1e-9;
      ledger.layer_s[static_cast<size_t>(layer)] += d;
      ++ledger.layer_calls[static_cast<size_t>(layer)];
      ledger.accounted_s += d;
    };
    // Compute time: the gaps between spans, sorted by start, inside the
    // lifetime. Overlapping spans leave no gap and are counted twice in
    // accounted_s, which the gap share then shows.
    int64_t covered_to = log->born_ns;
    int64_t compute_ns = 0;
    auto cover = [&](int64_t start_ns, int64_t end_ns) {
      if (start_ns > covered_to) compute_ns += start_ns - covered_to;
      covered_to = std::max(covered_to, end_ns);
    };
    for (const ThreadLog::Span& s : spans) {
      charge(kLayerOfCall[static_cast<size_t>(s.call)], s.start_ns, s.end_ns);
      ++ledger.calls[static_cast<size_t>(s.call)];
      cover(s.start_ns, s.end_ns);
      if (s.call == Call::kJoin) {
        if (auto it = by_tid.find(s.target); it != by_tid.end()) {
          const int64_t from = std::max(s.start_ns, it->second->born_ns);
          const int64_t to = std::min(s.end_ns, it->second->died_ns);
          join_wait_ns += std::max<int64_t>(0, to - from);
        }
      }
    }
    if (log->body_end_ns != 0) {
      charge(Layer::kExit, log->body_end_ns, log->died_ns);
      cover(log->body_end_ns, log->died_ns);
    }
    if (log->died_ns > covered_to) compute_ns += log->died_ns - covered_to;
    ledger.compute_s += static_cast<double>(compute_ns) * 1e-9;
    ledger.accounted_s += static_cast<double>(compute_ns) * 1e-9;
    ledger.lifetime_s +=
        static_cast<double>(log->died_ns - log->born_ns) * 1e-9;
    ledger.window_s +=
        static_cast<double>(log->died_ns - log->opened_ns) * 1e-9;
    ++ledger.threads;
  }
  ledger.join_wait_s = static_cast<double>(join_wait_ns) * 1e-9;
  if (ledger.window_s > 0) {
    ledger.gap_share =
        std::fabs(ledger.window_s - ledger.accounted_s) / ledger.window_s;
  }
  return ledger;
}

}  // namespace perfbench
