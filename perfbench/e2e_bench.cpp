// perfbench_e2e — end-to-end wall time, set-up time and footprint of one
// benchmark workload on the RFDet runtime, or, with --trace 1, the
// per-layer attribution of that time.
//
//   perfbench_e2e --workload dedup --seed 7 --seconds 20 --trace 0
//
// The workload runs on dmt::CreateEnv wrapped in a ForwardingEnv, so the
// runtime is driven exactly as any program drives it. One warm-up
// iteration is discarded, then iterations repeat until --seconds have
// passed. Every iteration is checked: its signature must equal a pthreads
// reference run of the same seed, and its exactly-repeating counters must
// equal the first iteration's. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// readable summary. NOTES.md explains the workloads and metrics.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "forwarding_env.h"
#include "rfdet/apps/workload.h"
#include "rfdet/backends/backends.h"
#include "tracing_env.h"

extern char** environ;

namespace perfbench {
namespace {

struct WorkloadSpec {
  std::string_view name;
  std::string_view app;
  dmt::BackendKind backend;
  int scale;
};

// 3 workers + the main thread = 4 threads, one per core of the 4-vCPU
// reference host. turn_wait is pinned to park for every workload.
constexpr size_t kWorkers = 3;
// A run cycles through kInputs inputs derived from --seed
// (Params.seed = seed * kInputs + j). One input's deterministic schedule
// moves dedup's wall time by 20% and more from one seed to the next; a
// run's figures should describe the workload, not one input.
constexpr uint64_t kInputs = 4;
// Largest share of the threads' summed wall-time windows (Ledger) the
// traced ledger may leave unaccounted (or count twice) before an
// iteration fails.
constexpr double kMaxLedgerGap = 0.02;
// The workloads, as named on the command line. lu-con on rfdet-ci was
// dropped for host noise it cannot correct (NOTES.md, "Dropped").
constexpr WorkloadSpec kWorkloads[] = {
    {"dedup", "dedup", dmt::BackendKind::kRfdetCi, 1},
    {"lu-con-pf", "lu-con", dmt::BackendKind::kRfdetPf, 14},
    {"bfs", "bfs", dmt::BackendKind::kRfdetCi, 4},
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0;
}

// Counters that are a pure function of (workload, seed) on the rfdet
// runtimes: every iteration, traced or not, must reproduce them.
using ExactCounters =
    std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>;
ExactCounters Exact(const rfdet::StatsSnapshot& s) {
  return {s.slices_created, s.slices_propagated, s.bytes_propagated,
          s.pages_diffed, s.locks};
}

// Wall seconds one CPU-second stolen from the VM adds to an iteration.
// On a virtual machine, CPU time the host gives to other guests stalls
// the Kendo turn chain: a descheduled vCPU holds every thread waiting for
// its turn. Fitted per run, the slope of wall time against steal over
// runs whose steal reached zero read 0.48–0.88 (median 0.73, ten runs
// over the three workloads; NOTES.md). Fitted per run it cannot be used
// when every iteration is stolen from: it then extrapolates from a narrow
// steal range and read 0.2–1.0 on the same workloads.
constexpr double kStealCost = 0.7;

// CPU time the hypervisor has stolen from this machine's vCPUs so far,
// summed over CPUs (the steal column of /proc/stat), in seconds. 0 where
// the kernel does not report it.
double HostStealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  static const double kTicksPerSecond =
      static_cast<double>(sysconf(_SC_CLK_TCK));
  return n == 8 && kTicksPerSecond > 0
             ? static_cast<double>(v[7]) / kTicksPerSecond
             : 0;
}

struct Iteration {
  size_t input = 0;  // index into the run's inputs
  uint64_t signature = 0;
  double setup_s = 0;       // CPU: CreateEnv + Env calls before 1st Spawn
  double setup_span_s = 0;  // wall: CreateEnv call → first Spawn
  double wall_s = 0;   // first Spawn → Env destroyed (stats reads excluded)
  double steal_s = 0;  // host CPU time stolen from the VM meanwhile
  double steady_s = 0;  // wall_s − kStealCost × steal_s
  double footprint_mb = 0;
  rfdet::StatsSnapshot stats;
  std::optional<Ledger> ledger;  // traced iterations only
};

template <class EnvT>
Iteration RunOnce(const apps::Workload& workload, const apps::Params& params,
                  const dmt::BackendConfig& config) {
  Iteration it;
  const double steal_before = HostStealSeconds();
  const Clock::time_point creating = Clock::now();
  const double creating_cpu_s = ProcessCpuSeconds();
  std::unique_ptr<dmt::Env> inner = dmt::CreateEnv(config);
  const double create_cpu_s = ProcessCpuSeconds() - creating_cpu_s;
  auto env = std::make_unique<EnvT>(std::move(inner));
  it.signature = workload.Run(*env, params).signature;
  const Clock::time_point ran = Clock::now();
  if constexpr (std::is_same_v<EnvT, TracingEnv>) {
    it.ledger = env->hooks().Finish();
  }
  it.stats = env->Stats();
  it.footprint_mb = static_cast<double>(env->FootprintBytes()) / (1 << 20);
  Clock::time_point first_spawn = env->FirstSpawn();
  if (first_spawn == Clock::time_point{}) first_spawn = ran;
  it.setup_s = create_cpu_s + env->SetupCpuSeconds();
  const Clock::time_point destroying = Clock::now();
  env.reset();
  const Clock::time_point destroyed = Clock::now();
  it.setup_span_s = Seconds(first_spawn - creating);
  it.wall_s = Seconds(ran - first_spawn) + Seconds(destroyed - destroying);
  it.steal_s = HostStealSeconds() - steal_before;
  it.steady_s = it.wall_s - kStealCost * it.steal_s;
  return it;
}

// The median of each input's values, by input. Inputs differ
// systematically (dedup: one input at 0.5 s, the others at 0.7–0.8 s); a
// median pooled over inputs jumps between their clusters. Every input
// has at least one iteration.
std::vector<double> InputMedians(const std::vector<Iteration>& its,
                                 double Iteration::*field) {
  std::vector<std::vector<double>> per_input(kInputs);
  for (const Iteration& it : its) per_input[it.input].push_back(it.*field);
  std::vector<double> medians;
  for (const std::vector<double>& xs : per_input) medians.push_back(Median(xs));
  return medians;
}

double Mean(const std::vector<double>& xs) {
  double sum = 0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0 : sum / static_cast<double>(xs.size());
}

// The mean over the run's inputs of the median of each input's values.
double InputMean(const std::vector<Iteration>& its,
                 double Iteration::*field) {
  return Mean(InputMedians(its, field));
}

// Steal below this range over a run's iterations (five /proc/stat ticks
// at the usual 100 Hz) is too coarse to fit a slope against.
constexpr double kMinStealRange = 0.05;

// The Theil–Sen slope of wall time against host steal over a run's
// iterations, each taken relative to the median of its own input so the
// inputs' differences do not pass for a slope, clamped to [0, 1]; 0 when
// steal barely varies. Reported to check kStealCost against, not used
// for wall_s: fitted per run it swings with the run's steal range.
double StealSlope(const std::vector<Iteration>& its) {
  if (its.empty()) return 0;
  const std::vector<double> input_median =
      InputMedians(its, &Iteration::wall_s);
  const auto [lo, hi] = std::minmax_element(
      its.begin(), its.end(), [](const Iteration& a, const Iteration& b) {
        return a.steal_s < b.steal_s;
      });
  if (hi->steal_s - lo->steal_s < kMinStealRange) return 0;
  auto residual = [&](const Iteration& it) {
    return it.wall_s - input_median[it.input];
  };
  std::vector<double> slopes;
  for (size_t i = 0; i < its.size(); ++i) {
    for (size_t j = i + 1; j < its.size(); ++j) {
      const double dx = its[j].steal_s - its[i].steal_s;
      if (dx != 0) slopes.push_back((residual(its[j]) - residual(its[i])) / dx);
    }
  }
  return std::clamp(Median(slopes), 0.0, 1.0);
}

double StealShare(const std::vector<Iteration>& its) {
  const auto stolen = std::count_if(
      its.begin(), its.end(),
      [](const Iteration& it) { return it.steal_s > 0; });
  return Share(static_cast<double>(stolen), static_cast<double>(its.size()));
}

struct Metric {
  double value;
  std::string_view unit;
};

// The per-layer metrics of one traced iteration, named as in
// BENCHMARK.json.
std::map<std::string, Metric> LayerMetrics(const Iteration& it) {
  const rfdet::StatsSnapshot& s = it.stats;
  const Ledger& l = *it.ledger;
  std::map<std::string, Metric> m;
  auto count = [&](const std::string& name, uint64_t v) {
    m[name] = {static_cast<double>(v), "count"};
  };
  auto secs = [&](const std::string& name, double v) { m[name] = {v, "s"}; };
  auto share = [&](const std::string& name, uint64_t part, uint64_t whole) {
    m[name] = {whole > 0 ? static_cast<double>(part) /
                               static_cast<double>(whole)
                         : 0.0,
               "share"};
  };
  auto bytes = [&](const std::string& name, uint64_t v) {
    m[name] = {static_cast<double>(v), "B"};
  };
  auto mb = [&](const std::string& name, size_t v) {
    m[name] = {static_cast<double>(v) / (1 << 20), "MB"};
  };
  count("kendo.turn_handoffs", s.turn_handoffs);
  count("kendo.turn_parks", s.turn_parks);
  count("kendo.turn_wakeups", s.turn_wakeups);
  count("kendo.turn_spins", s.turn_spins);
  secs("kendo.park_s", static_cast<double>(s.park_ns) * 1e-9);
  count("runtime.slices_created", s.slices_created);
  share("runtime.merge_ratio", s.slices_merged,
        s.slices_merged + s.slices_created);
  secs("runtime.close_s", static_cast<double>(s.close_turn_ns) * 1e-9);
  count("runtime.slices_propagated", s.slices_propagated);
  bytes("runtime.bytes_propagated", s.bytes_propagated);
  share("runtime.prelock_share", s.prelock_slices, s.slices_propagated);
  share("runtime.offturn_share", s.offturn_prepared_slices,
        s.slices_created);
  count("runtime.gc_count", s.gc_count);
  count("mem.pages_diffed", s.pages_diffed);
  count("mem.stores_with_copy", s.stores_with_copy);
  // 1 − plans built / slices propagated: receivers reusing a cached plan.
  share("mem.plan_reuse", s.slices_propagated - s.apply_plans_built,
        s.slices_propagated);
  count("mem.lazy_pages_applied", s.lazy_pages_applied);
  mb("mem.resident_mb", s.resident_bytes);
  mb("mem.metadata_peak_mb", s.metadata_peak_bytes);
  count("mem.page_faults", s.page_faults);
  count("mem.mprotect_calls", s.mprotect_calls);
  share("slice.coalesced_share", s.coalesced_slices, s.slices_propagated);
  bytes("slice.coalesce_bytes_saved", s.coalesce_bytes_saved);
  count("exec.regions", s.exec_regions);
  count("exec.items", s.exec_items);
  count("exec.donations", s.exec_donations);
  count("exec.donated_items", s.exec_donated_items);
  for (size_t i = 0; i < kLayerCount; ++i) {
    const std::string layer(LayerName(static_cast<Layer>(i)));
    secs("api." + layer + "_s", l.layer_s[i]);
    count("api." + layer + "_calls", l.layer_calls[i]);
  }
  secs("api.compute_s", l.compute_s);
  secs("api.join_wait_s", l.join_wait_s);
  // Self time of the calls that take Kendo turns and close slices (sync,
  // atomic, spawn/join, thread exit), less the main thread's wait in Join
  // for a still-running thread, outside parking and slice close: spin
  // wait, prelock and propagation.
  auto layer_s = [&](Layer layer) {
    return l.layer_s[static_cast<size_t>(layer)];
  };
  secs("api.sync_other_s",
       layer_s(Layer::kSync) + layer_s(Layer::kAtomic) +
           layer_s(Layer::kThread) + layer_s(Layer::kExit) - l.join_wait_s -
           m["kendo.park_s"].value - m["runtime.close_s"].value);
  m["ledger_gap"] = {l.gap_share, "share"};
  return m;
}

// Shortest decimal that round-trips the double: every measured digit.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return std::nullopt;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return std::nullopt;
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return std::nullopt;
  }
  if (!have_workload || !(a.seconds > 0 && a.seconds <= 60)) {
    return std::nullopt;
  }
  return a;
}

// RFDET_* variables override runtime options (turn wait, kernels, grain,
// coalescing); the benchmark pins its own configuration instead.
void ClearRuntimeOverrides() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.rfind("RFDET_", 0) == 0) {
      names.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

// glibc raises its mmap threshold each time a large mmapped block is
// freed, so from the second iteration on, the runtime's large set-up
// buffers come either from recycled heap (no page faults, ~0.15 ms on
// bfs) or from fresh pages (~160 faults, ~0.35 ms), and set-up time
// flipped between the two. Pinning the threshold at its start-up value
// gives every iteration the allocator a fresh process has.
void PinAllocator() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

int Main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload <name> --seed <n> "
                 "--seconds <1..60> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == args->workload) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench_e2e: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }
  const apps::Workload* workload = apps::FindWorkload(spec->app);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench_e2e: app '%.*s' not registered\n",
                 static_cast<int>(spec->app.size()), spec->app.data());
    return 2;
  }
  ClearRuntimeOverrides();
  PinAllocator();

  dmt::BackendConfig config;
  config.kind = spec->backend;
  config.turn_wait = "park";
  dmt::BackendConfig pthreads = config;
  pthreads.kind = dmt::BackendKind::kPthreads;

  // Per input: the pthreads reference signature for its seed and scale,
  // and pthreads times for the informational Fig. 7 overhead ratio.
  struct Input {
    apps::Params params;
    uint64_t reference = 0;
    std::optional<ExactCounters> exact;  // set by its first iteration
  };
  std::vector<Input> inputs(kInputs);
  std::vector<double> pthreads_s;
  for (uint64_t j = 0; j < kInputs; ++j) {
    Input& in = inputs[j];
    in.params.threads = kWorkers;
    in.params.seed = args->seed * kInputs + j;
    in.params.scale = spec->scale;
    in.reference =
        RunOnce<ForwardingEnv>(*workload, in.params, pthreads).signature;
    for (int i = 0; i < 2; ++i) {
      const Iteration p =
          RunOnce<ForwardingEnv>(*workload, in.params, pthreads);
      if (p.signature != in.reference) {
        std::fprintf(stderr, "perfbench_e2e: pthreads signature unstable\n");
        return 1;
      }
      pthreads_s.push_back(p.wall_s);
    }
  }
  auto run = [&](size_t input, bool traced) {
    Iteration it =
        traced ? RunOnce<TracingEnv>(*workload, inputs[input].params, config)
               : RunOnce<ForwardingEnv>(*workload, inputs[input].params,
                                        config);
    it.input = input;
    return it;
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto check = [&](const Iteration& it, const char* what) {
    ++attempted;
    Input& in = inputs[it.input];
    bool ok = it.signature == in.reference;
    if (!ok) {
      std::fprintf(stderr,
                   "perfbench_e2e: %s iteration signature %llu != pthreads "
                   "%llu\n",
                   what, static_cast<unsigned long long>(it.signature),
                   static_cast<unsigned long long>(in.reference));
    }
    if (!in.exact) in.exact = Exact(it.stats);
    if (Exact(it.stats) != *in.exact) {
      std::fprintf(stderr,
                   "perfbench_e2e: %s iteration counters differ from the "
                   "first iteration's on the same input\n",
                   what);
      ok = false;
    }
    // The traced ledger must account for every thread's window.
    if (it.ledger && it.ledger->gap_share > kMaxLedgerGap) {
      std::fprintf(stderr,
                   "perfbench_e2e: %s iteration ledger gap %.4f exceeds "
                   "%.2f\n",
                   what, it.ledger->gap_share, kMaxLedgerGap);
      ok = false;
    }
    if (!ok) ++failed;
  };

  // Warm-up, discarded from the timings but still checked.
  check(run(0, false), "warm-up");
  if (args->trace) check(run(0, true), "warm-up traced");

  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  const Clock::time_point start = Clock::now();
  const auto budget = std::chrono::duration<double>(args->seconds);
  for (size_t i = 0; Clock::now() - start < budget || i < kInputs; ++i) {
    plain.push_back(run(i % kInputs, false));
    check(plain.back(), "untraced");
    if (args->trace) {
      traced.push_back(run(i % kInputs, true));
      check(traced.back(), "traced");
    }
  }

  const double wall_s = InputMean(plain, &Iteration::steady_s);
  const double steal_slope = StealSlope(plain);
  const double steal_share = StealShare(plain);
  const double setup_s = InputMean(plain, &Iteration::setup_s);
  const double setup_span_s = InputMean(plain, &Iteration::setup_span_s);
  const double footprint_mb = InputMean(plain, &Iteration::footprint_mb);
  const double raw_wall_s = InputMean(plain, &Iteration::wall_s);
  const double pthreads_wall_s = Median(pthreads_s);

  std::printf("workload %s (%s, scale %d, %zu workers, turn_wait park), "
              "seed %llu: input seeds %llu..%llu\n",
              std::string(spec->name).c_str(),
              std::string(dmt::ToString(spec->backend)).c_str(), spec->scale,
              kWorkers, static_cast<unsigned long long>(args->seed),
              static_cast<unsigned long long>(inputs.front().params.seed),
              static_cast<unsigned long long>(inputs.back().params.seed));
  std::printf("%zu untraced iterations (wall_s/host steal_s):", plain.size());
  for (const Iteration& it : plain) {
    std::printf(" %.4f/%.2f", it.wall_s, it.steal_s);
  }
  std::printf("\nwall_s %.4f with %.1f s per stolen CPU-second removed "
              "(%.0f%% of iterations stolen from; this run's own slope "
              "%.2f), %.4f as measured\n",
              wall_s, kStealCost, 100 * steal_share, steal_slope,
              raw_wall_s);
  std::printf("setup_s %.6f CPU seconds (wall time from CreateEnv to the "
              "first Spawn, the workload's own work included: %.6f); "
              "footprint_mb %.3f\n",
              setup_s, setup_span_s, footprint_mb);
  std::printf("info (not gated): pthreads_s %.6f, overhead_x %.1f\n",
              pthreads_wall_s, Share(wall_s, pthreads_wall_s));

  std::string metrics;
  auto add = [&](const std::string& name, double value,
                 std::string_view unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Num(value) +
               ", \"unit\": \"" + std::string(unit) + "\"}";
  };
  if (!args->trace) {
    add("wall_s", wall_s, "s");
    add("setup_s", setup_s, "s");
    add("footprint_mb", footprint_mb, "MB");
  } else {
    std::map<std::string, std::pair<std::string_view, std::vector<double>>>
        series;
    for (const Iteration& it : traced) {
      for (const auto& [name, metric] : LayerMetrics(it)) {
        series[name].first = metric.unit;
        series[name].second.push_back(metric.value);
      }
    }
    const double trace_overhead =
        Share(InputMean(traced, &Iteration::steady_s), wall_s);
    std::vector<double> steal_s;
    for (const Iteration& it : plain) steal_s.push_back(it.steal_s);
    series["trace_overhead"] = {"x", {trace_overhead}};
    series["host.steal_s"] = {"s", steal_s};
    series["host.steal_slope"] = {"s/s", {steal_slope}};
    series["host.steal_share"] = {"share", {steal_share}};
    series["host.raw_wall_s"] = {"s", {raw_wall_s}};
    series["baseline.pthreads_s"] = {"s", {pthreads_wall_s}};
    series["baseline.overhead_x"] = {
        "x", {Share(wall_s, pthreads_wall_s)}};
    std::printf("%zu traced iterations: trace_overhead %.3f, ledger_gap "
                "%.2e\n",
                traced.size(), trace_overhead,
                Median(series["ledger_gap"].second));
    for (const auto& [name, series_of] : series) {
      add(name, Median(series_of.second), series_of.first);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
