// GDMS performance benchmark: one workload per process.
//
//   gdms_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see perfbench/WORKLOADS.md for why each exists and which
// metrics it is expected to move):
//   map_many_samples     closed loop, E7 MAP on the parallel engine
//   join_cover_select    closed loop, multi-operator JOIN/COVER program
//   serve_mixed_rw       open loop into serve::SessionManager + publishes
//   federated_broadcast  closed loop, Coordinator::RunEverywhere over a
//                        faulty simulated wire
//
// Inputs are generated from --seed and encoded to .gdmz before any clock
// starts. Set-up (decode, register/publish, column caches, one warm-up
// query) is repeated kSetupReps times and reported as its median. Outputs
// are checked against core::ReferenceExecutor through an order-canonical
// content hash, off every timed clock.
//
// Every layer is measured from outside: by timing calls into its public
// functions (a timing decorator over core::Executor, Parser::Parse,
// Optimizer::Optimize, SessionManager::Submit, FederatedNode handlers) and
// by reading its public counters. With --trace 1 the benchmark also keeps
// spans (name, start, end, parent, query id) around those calls, writes
// them out when the run ends, and reports per-layer self times; traced and
// untraced queries alternate so the tracing overhead is measured in the
// same process.
//
// The last line of stdout is one JSON object: correct / attempted / failed,
// "metrics" (end-to-end without --trace, per-layer with it) and "record"
// (hardware, build, seed, percentiles and every metric measured).

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/executor.h"
#include "core/optimizer.h"
#include "core/parser.h"
#include "core/runner.h"
#include "engine/parallel_executor.h"
#include "gdm/dataset.h"
#include "io/gdmz.h"
#include "repo/federation.h"
#include "repo/transport.h"
#include "serve/serve_catalog.h"
#include "serve/session_manager.h"
#include "sim/generators.h"

namespace {

using namespace gdms;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "gdms_perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The tail percentile each workload reports: fixed per workload (so two
/// runs compare the same percentile) and chosen so that a run at the
/// seed's speed leaves at least ten samples beyond it. The record states
/// how many samples actually lay beyond it.
struct Tail {
  double q = 0.9;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

Tail TailOf(const std::vector<double>& v, double q) {
  Tail t;
  t.q = q;
  t.value = Quantile(v, q);
  t.samples = v.size();
  for (double x : v) t.beyond += x > t.value ? 1 : 0;
  return t;
}

// ---------------------------------------------------------------------------
// Process facts

size_t HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Process peak resident set (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Order-canonical content hash of query outputs.
//
// Covers the schema, every region's chromosome, left, right, strand and
// values, and every sample's metadata. Samples and regions are combined as
// multisets, so two executors that emit the same content in a different
// order hash equal; sample ids and dataset names are left out.

uint64_t Combine(uint64_t h, uint64_t v) { return Mix64(h ^ Mix64(v)); }

uint64_t HashBytes(const std::string& s) {
  return Mix64(Fnv1a64(s) ^ s.size());
}

uint64_t HashValue(const gdm::Value& v) {
  if (v.is_int()) return Combine(2, static_cast<uint64_t>(v.AsInt()));
  if (v.is_double()) {
    double d = v.AsDouble() == 0 ? 0.0 : v.AsDouble();  // -0.0 == 0.0
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return Combine(3, bits);
  }
  if (v.is_string()) return Combine(4, HashBytes(v.AsString()));
  if (v.is_bool()) return Combine(5, v.AsBool() ? 1 : 0);
  return Mix64(1);  // null
}

/// Multiset accumulator: order-independent, duplicate-sensitive.
struct Multiset {
  uint64_t sum = 0, sq = 0, n = 0;
  void Add(uint64_t h) {
    uint64_t m = Mix64(h);
    sum += m;
    sq += m * m;
    ++n;
  }
  uint64_t Digest() const { return Combine(Combine(sum, sq), n); }
};

uint64_t HashSample(const gdm::Sample& s) {
  Multiset regions;
  for (const gdm::GenomicRegion& r : s.regions) {
    uint64_t h = Combine(static_cast<uint64_t>(r.chrom),
                         static_cast<uint64_t>(r.left));
    h = Combine(h, static_cast<uint64_t>(r.right));
    h = Combine(h, static_cast<uint64_t>(r.strand));
    for (const gdm::Value& v : r.values) h = Combine(h, HashValue(v));
    regions.Add(h);
  }
  std::vector<gdm::MetaEntry> meta = s.metadata.entries();
  std::sort(meta.begin(), meta.end());
  uint64_t h = regions.Digest();
  for (const gdm::MetaEntry& e : meta) {
    h = Combine(h, Combine(HashBytes(e.attr), HashBytes(e.value)));
  }
  return h;
}

uint64_t HashDataset(const gdm::Dataset& ds) {
  Multiset samples;
  for (const gdm::Sample& s : ds.samples()) samples.Add(HashSample(s));
  return Combine(HashBytes(ds.schema().ToString()), samples.Digest());
}

uint64_t HashResults(const std::map<std::string, gdm::Dataset>& results) {
  uint64_t h = Mix64(results.size());
  for (const auto& [name, ds] : results) {
    h = Combine(h, Combine(HashBytes(name), HashDataset(ds)));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Spans kept in memory and written out when the run ends.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the log; -1 = root
  uint64_t query = 0;   ///< spans of one query share this id
};

class SpanLog {
 public:
  int64_t Begin(std::string name, int64_t parent, uint64_t query) {
    spans_.push_back({std::move(name), NowNs(), 0, parent, query});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t query) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, query});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Σ self time (ms) per span name: a span's duration minus the part of
  /// its interval that the union of its children covers.
  std::map<std::string, double> SelfMsByName() const {
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<int64_t, int64_t>> cover;
      for (size_t c : children[i]) {
        int64_t a = std::max(s.start_ns, spans_[c].start_ns);
        int64_t b = std::min(s.end_ns, spans_[c].end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0, reach = s.start_ns;
      for (auto [a, b] : cover) {
        a = std::max(a, reach);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
      out[s.name] += NsToMs(s.end_ns - s.start_ns - covered);
    }
    return out;
  }

  /// Writes the spans as a JSON array; times are ns from the first span.
  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 ",\"parent\":%" PRId64
                   ",\"query\":%" PRIu64 "}%s\n",
                   i, s.name.c_str(), s.start_ns - origin, s.end_ns - origin,
                   s.parent, s.query, i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Timing decorator over core::Executor: Σ Execute per query, plus one
// "engine.<kind>" span per Execute in a traced query.

const char* KindSlot(core::OpKind kind) {
  switch (kind) {
    case core::OpKind::kMap: return "map";
    case core::OpKind::kJoin: return "join";
    case core::OpKind::kSelect: return "select";
    case core::OpKind::kCover: return "cover";
    case core::OpKind::kDifference: return "difference";
    case core::OpKind::kFused: return "fused";
    default: return "other";
  }
}

const char* const kKindSlots[] = {"map",        "join",  "select", "cover",
                                  "difference", "fused", "other"};

class TimedExecutor : public core::Executor {
 public:
  explicit TimedExecutor(core::Executor* inner) : inner_(inner) {}

  Result<gdm::Dataset> Execute(
      const core::PlanNode& node,
      const std::vector<const gdm::Dataset*>& inputs) override {
    int64_t t0 = NowNs();
    Result<gdm::Dataset> out = inner_->Execute(node, inputs);
    int64_t t1 = NowNs();
    total_ns_ += t1 - t0;
    if (log_ != nullptr) {
      log_->Add(std::string("engine.") + KindSlot(node.kind), t0, t1, parent_,
                query_);
    }
    return out;
  }

  core::ExecutorStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  void set_columnar(bool on) override { inner_->set_columnar(on); }
  bool columnar() const override { return inner_->columnar(); }

  /// Starts a query: clears the per-query Σ Execute; spans go to `log`
  /// (null = untraced) under `parent`.
  void BeginQuery(SpanLog* log, int64_t parent, uint64_t query) {
    total_ns_ = 0;
    log_ = log;
    parent_ = parent;
    query_ = query;
  }
  int64_t total_ns() const { return total_ns_; }

 private:
  core::Executor* inner_;
  int64_t total_ns_ = 0;
  SpanLog* log_ = nullptr;
  int64_t parent_ = -1;
  uint64_t query_ = 0;
};

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  size_t hardware_threads = 0;
  size_t engine_threads = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Tail tail;
  std::vector<double> setup_s;  ///< one per set-up repetition
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::map<std::string, std::string> notes;  ///< last value per key

  void E2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void Layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  void Note(const std::string& k, const std::string& v) { notes[k] = v; }
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

void PrintReport(const Report& r) {
  std::string rec = "{\"workload\": " + Quote(r.workload) +
                    ", \"seed\": " + std::to_string(r.seed) +
                    ", \"seconds\": " + Num(r.seconds) +
                    ", \"trace\": " + (r.trace ? "1" : "0") +
                    ", \"hardware_threads\": " +
                    std::to_string(r.hardware_threads) +
                    ", \"engine_threads\": " +
                    std::to_string(r.engine_threads) +
                    ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
                    ", \"failed_share\": " +
                    Num(r.attempted ? static_cast<double>(r.failed) /
                                          static_cast<double>(r.attempted)
                                    : 0) +
                    ", \"tail_percentile\": " + Num(r.tail.q * 100) +
                    ", \"tail_samples\": " + std::to_string(r.tail.samples) +
                    ", \"tail_samples_beyond\": " +
                    std::to_string(r.tail.beyond) + ", \"setup_runs_s\": [";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    rec += (i ? ", " : "") + Num(r.setup_s[i]);
  }
  rec += "], \"notes\": {";
  for (const auto& [key, value] : r.notes) {
    rec += (rec.back() == '{' ? "" : ", ") + Quote(key) + ": " + Quote(value);
  }
  rec += "}, \"end_to_end\": " + MetricsJson(r.e2e) +
         ", \"per_layer\": " + MetricsJson(r.layer) + "}";
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s, \"record\": %s}\n",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed,
              MetricsJson(r.trace ? r.layer : r.e2e).c_str(), rec.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Options and shared helpers

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

/// Inputs travel as .gdmz wire images, so decoding is part of set-up.
std::string Encode(const gdm::Dataset& ds) { return io::WriteGdmzString(ds); }

struct Decoded {
  gdm::Dataset dataset;
  double ms = 0;
};

Decoded Decode(const std::string& blob) {
  int64_t t0 = NowNs();
  gdm::Dataset ds = Unwrap(io::ReadGdmzBytes(blob), "decode");
  return {std::move(ds), NsToMs(NowNs() - t0)};
}

double Mb(double bytes) { return bytes / (1024.0 * 1024.0); }

/// Median ms of `reps` calls of fn.
double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = NowNs();
    fn();
    ms.push_back(NsToMs(NowNs() - t0));
  }
  return Median(ms);
}

double ParseProbeMs(const std::string& text) {
  return MedianMs(15, [&] {
    (void)Unwrap(core::Parser::Parse(text), "parse");
  });
}

/// Emits every per-layer metric name with 0 so each workload's traced run
/// prints the full list; workloads then overwrite what they measure.
const std::vector<std::pair<const char*, const char*>>& LayerCatalog() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"core.parse_ms", "ms"},
      {"core.optimize_ms", "ms"},
      {"core.runner_self_ms", "ms"},
      {"core.operators_evaluated", "count"},
      {"core.intermediate_datasets", "count"},
      {"engine.map.exec_ms", "ms"},
      {"engine.join.exec_ms", "ms"},
      {"engine.select.exec_ms", "ms"},
      {"engine.cover.exec_ms", "ms"},
      {"engine.difference.exec_ms", "ms"},
      {"engine.fused.exec_ms", "ms"},
      {"engine.other.exec_ms", "ms"},
      {"engine.tasks", "count"},
      {"engine.partitions", "count"},
      {"engine.stage_barriers", "count"},
      {"engine.columnar_tasks", "count"},
      {"engine.columnar_task_share", "ratio"},
      {"engine.parallel_efficiency", "ratio"},
      {"gdm.column_build_ms", "ms"},
      {"gdm.columnar_cache_mb", "MiB"},
      {"gdm.resident_mb", "MiB"},
      {"io.gdmz_decode_ms", "ms"},
      {"io.gdmz_decode_mb_per_s", "MiB/s"},
      {"io.gdmz_encode_ms", "ms"},
      {"io.gdmz_bytes_per_region", "B/region"},
      {"serve.other_ms", "ms"},
      {"serve.queue_p50_ms", "ms"},
      {"serve.queue_tail_ms", "ms"},
      {"serve.exec_ms", "ms"},
      {"serve.submit_us", "us"},
      {"serve.backlog_max", "count"},
      {"serve.plan_hit_rate", "ratio"},
      {"serve.plan_rebind_rate", "ratio"},
      {"serve.result_hit_rate", "ratio"},
      {"serve.result_invalidations", "count"},
      {"serve.generator_late_ms", "ms"},
      {"serve.hit_latency_p50_ms", "ms"},
      {"serve.publish_p50_ms", "ms"},
      {"serve.max_rate_qps", "qps"},
      {"repo.makespan_ms", "ms"},
      {"repo.broadcast_wall_ms", "ms"},
      {"repo.compile_ms", "ms"},
      {"repo.execute_ms", "ms"},
      {"repo.requests", "count"},
      {"repo.bytes_sent", "B"},
      {"repo.bytes_received", "B"},
      {"repo.retries", "count"},
      {"repo.timeouts", "count"},
      {"repo.corruptions", "count"},
      {"repo.hedges", "count"},
      {"repo.wasted_bytes", "B"},
      {"obs.traced_wall_ms", "ms"},
      {"obs.unattributed_pct", "%"},
      {"obs.trace_overhead_pct", "%"},
  };
  return names;
}

/// Per-layer values keyed by name; rendered in LayerCatalog order.
using LayerValues = std::map<std::string, double>;

void FinishLayers(const LayerValues& values, Report* report) {
  for (const auto& [name, unit] : LayerCatalog()) {
    auto it = values.find(name);
    report->Layer(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const auto& entry : LayerCatalog()) known |= name == entry.first;
    if (!known) Die("per-layer metric missing from the catalog: " + name);
  }
}

/// Shared end-to-end figures every workload reports.
void CommonE2e(const std::vector<double>& latencies_ms, double tail_q,
               Report* report) {
  report->tail = TailOf(latencies_ms, tail_q);
  report->E2e("setup_s", Median(report->setup_s), "s");
  report->E2e("latency_p50_ms", Median(latencies_ms), "ms");
  report->E2e("latency_tail_ms", report->tail.value, "ms");
  report->E2e("peak_rss_mb", PeakRssMb(), "MiB");
}

/// Percent difference of traced over untraced p50 latency.
double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  double base = Median(untraced);
  return base > 0 ? (Median(traced) - base) / base * 100.0 : 0.0;
}

/// Deterministic per-input seeds derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return Mix64(seed * 1000003 + salt);
}

// ---------------------------------------------------------------------------
// Local closed-loop workloads: map_many_samples and join_cover_select.

constexpr double kLocalTailQ = 0.9;
constexpr size_t kLocalVerifyEvery = 4;  ///< hash every k-th timed output

struct LocalSpec {
  std::string query;
  std::vector<std::string> blobs;  ///< .gdmz images of the sources
};

/// One set-up of a local workload: decoded, registered sources with warm
/// column caches behind a parallel engine.
struct LocalSetup {
  std::unique_ptr<engine::ParallelExecutor> engine;
  std::unique_ptr<TimedExecutor> timed;
  std::unique_ptr<core::QueryRunner> runner;
  double decode_ms = 0;
  double decoded_mb = 0;
  double column_ms = 0;
};

std::unique_ptr<core::QueryRunner> MakeRunner(core::Executor* executor) {
  auto runner = std::make_unique<core::QueryRunner>(executor);
  core::ExecOptions exec;
  exec.optimize = false;  // the benchmark runs Optimize / fusion itself,
  exec.fusion = false;    // so each is timed as its own layer
  runner->set_exec_options(exec);
  return runner;
}

struct QueryOutcome {
  Status status;
  std::map<std::string, gdm::Dataset> results;
  double wall_ms = 0;
  double exec_ms = 0;  ///< Σ Execute
  core::RunStats stats;
};

/// One query through the public core API: Parse, Optimize + fusion,
/// RunProgram. With a log, records a "query" span with one child per layer
/// call and engine spans under core.run.
QueryOutcome RunLocal(core::QueryRunner* runner, TimedExecutor* timed,
                      const std::string& text, SpanLog* log, uint64_t id) {
  QueryOutcome out;
  int64_t t0 = NowNs();
  int64_t root = log ? log->Begin("query", -1, id) : -1;
  int64_t span = log ? log->Begin("core.parse", root, id) : -1;
  Result<core::Program> parsed = core::Parser::Parse(text);
  if (log) log->End(span);
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }
  core::Program program = std::move(parsed).value();
  span = log ? log->Begin("core.optimize", root, id) : -1;
  core::Optimizer::Optimize(&program);
  core::Optimizer::FusePerPartitionChains(&program);
  if (log) log->End(span);
  span = log ? log->Begin("core.run", root, id) : -1;
  timed->BeginQuery(log, span, id);
  Result<std::map<std::string, gdm::Dataset>> results =
      runner->RunProgram(std::move(program));
  if (log) {
    log->End(span);
    log->End(root);
  }
  out.wall_ms = NsToMs(NowNs() - t0);
  out.exec_ms = NsToMs(timed->total_ns());
  out.stats = runner->last_stats();
  if (results.ok()) {
    out.results = std::move(results).value();
  } else {
    out.status = results.status();
  }
  return out;
}

LocalSetup SetUpLocal(const LocalSpec& spec, size_t threads) {
  LocalSetup s;
  engine::EngineOptions eopts;
  eopts.threads = threads;
  s.engine = std::make_unique<engine::ParallelExecutor>(eopts);
  s.timed = std::make_unique<TimedExecutor>(s.engine.get());
  s.runner = MakeRunner(s.timed.get());
  for (const std::string& blob : spec.blobs) {
    Decoded d = Decode(blob);
    s.decode_ms += d.ms;
    s.decoded_mb += Mb(static_cast<double>(blob.size()));
    s.runner->RegisterDataset(std::move(d.dataset));
  }
  int64_t t0 = NowNs();
  for (const std::string& name : s.runner->DatasetNames()) {
    const gdm::Dataset* ds = s.runner->FindDataset(name);
    for (const gdm::Sample& sample : ds->samples()) {
      (void)sample.columns(ds->schema());
    }
  }
  s.column_ms = NsToMs(NowNs() - t0);
  QueryOutcome warm = RunLocal(s.runner.get(), s.timed.get(), spec.query,
                               nullptr, 0);
  if (!warm.status.ok()) Die("warm-up query: " + warm.status.ToString());
  return s;
}

/// A runner over `setup`'s registered sources (no copies) behind `executor`.
std::unique_ptr<core::QueryRunner> SharedSourceRunner(
    const LocalSetup& setup, core::Executor* executor) {
  auto runner = executor ? MakeRunner(executor)
                         : std::make_unique<core::QueryRunner>();
  const core::QueryRunner* owner = setup.runner.get();
  runner->set_source_provider(
      [owner](const std::string& name) -> std::shared_ptr<const gdm::Dataset> {
        const gdm::Dataset* ds = owner->FindDataset(name);
        if (ds == nullptr) return nullptr;
        return std::shared_ptr<const gdm::Dataset>(ds,
                                                   [](const gdm::Dataset*) {});
      });
  return runner;
}

void RunLocalWorkload(const Options& opt, const LocalSpec& spec,
                      bool probe_efficiency, Report* report) {
  const size_t threads = report->hardware_threads;
  report->engine_threads = threads;

  LocalSetup setup;
  std::vector<double> decode_ms, decode_mb_s, column_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.runner.reset();  // release the previous set-up, runner first
    setup = LocalSetup{};
    int64_t t0 = NowNs();
    setup = SetUpLocal(spec, threads);
    report->setup_s.push_back(NsToMs(NowNs() - t0) / 1000.0);
    decode_ms.push_back(setup.decode_ms);
    decode_mb_s.push_back(setup.decoded_mb / (setup.decode_ms / 1000.0));
    column_ms.push_back(setup.column_ms);
  }

  // Reference outputs: the sequential ReferenceExecutor over the same
  // sources, and the warm parallel run checked against it.
  auto reference = SharedSourceRunner(setup, nullptr);
  uint64_t want = HashResults(
      Unwrap(reference->Run(spec.query), "reference run"));
  reference.reset();
  {
    QueryOutcome check =
        RunLocal(setup.runner.get(), setup.timed.get(), spec.query, nullptr, 0);
    ++report->attempted;
    if (!check.status.ok() || HashResults(check.results) != want) {
      ++report->failed;
      report->Note("setup_check", "parallel output differs from reference");
    }
  }

  SpanLog log;
  std::vector<double> untraced_ms, traced_ms;
  core::RunStats last_stats;
  uint64_t tasks = 0, partitions = 0, barriers = 0, columnar = 0;
  size_t n = 0, traced_n = 0;
  int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  while (NowNs() < deadline) {
    bool traced = opt.trace && n % 2 == 1;
    QueryOutcome q = RunLocal(setup.runner.get(), setup.timed.get(),
                              spec.query, traced ? &log : nullptr, n + 1);
    ++report->attempted;
    if (!q.status.ok()) {
      ++report->failed;
      report->Note("error", q.status.ToString());
    } else if (n % kLocalVerifyEvery == 0 &&
               HashResults(q.results) != want) {
      ++report->failed;
      report->Note("mismatch", "query output differs from reference");
    }
    (traced ? traced_ms : untraced_ms).push_back(q.wall_ms);
    if (traced) ++traced_n;
    last_stats = q.stats;
    const engine::EngineTrace& et = setup.engine->trace();
    tasks = et.tasks.load();
    partitions = et.partitions.load();
    barriers = et.stage_barriers.load();
    columnar = et.columnar_tasks.load();
    ++n;
  }
  CommonE2e(untraced_ms, kLocalTailQ, report);
  if (!opt.trace) return;

  LayerValues lv;
  double tn = std::max<size_t>(traced_n, 1);
  std::map<std::string, double> self = log.SelfMsByName();
  lv["core.parse_ms"] = self["core.parse"] / tn;
  lv["core.optimize_ms"] = self["core.optimize"] / tn;
  lv["core.runner_self_ms"] = self["core.run"] / tn;
  for (const char* slot : kKindSlots) {
    lv[std::string("engine.") + slot + ".exec_ms"] =
        self[std::string("engine.") + slot] / tn;
  }
  double wall = Mean(traced_ms);
  lv["obs.traced_wall_ms"] = wall;
  lv["obs.unattributed_pct"] = wall > 0 ? self["query"] / tn / wall * 100 : 0;
  lv["obs.trace_overhead_pct"] = OverheadPct(traced_ms, untraced_ms);
  lv["core.operators_evaluated"] =
      static_cast<double>(last_stats.operators_evaluated);
  lv["core.intermediate_datasets"] =
      static_cast<double>(last_stats.intermediate_datasets);
  lv["engine.tasks"] = static_cast<double>(tasks);
  lv["engine.partitions"] = static_cast<double>(partitions);
  lv["engine.stage_barriers"] = static_cast<double>(barriers);
  lv["engine.columnar_tasks"] = static_cast<double>(columnar);
  lv["engine.columnar_task_share"] =
      tasks ? static_cast<double>(columnar) / static_cast<double>(tasks) : 0;
  lv["gdm.column_build_ms"] = Median(column_ms);
  double cache = 0, resident = 0;
  for (const std::string& name : setup.runner->DatasetNames()) {
    const gdm::Dataset* ds = setup.runner->FindDataset(name);
    cache += static_cast<double>(ds->ColumnarCacheBytes());
    resident += static_cast<double>(ds->EstimateResidentBytes());
  }
  lv["gdm.columnar_cache_mb"] = Mb(cache);
  lv["gdm.resident_mb"] = Mb(resident);
  lv["io.gdmz_decode_ms"] = Median(decode_ms);
  lv["io.gdmz_decode_mb_per_s"] = Median(decode_mb_s);

  if (probe_efficiency) {
    // Same flat columnar algorithm at 1 thread: T1 / (p * Tp) of Σ Execute.
    // 1-thread and p-thread queries alternate, so drift in host speed
    // during the probe hits both sides alike.
    engine::EngineOptions one;
    one.threads = 1;
    engine::ParallelExecutor serial(one);
    TimedExecutor timed(&serial);
    auto runner = SharedSourceRunner(setup, &timed);
    std::vector<double> t1, tp;
    for (int i = 0; i < 7; ++i) {
      QueryOutcome q = RunLocal(runner.get(), &timed, spec.query, nullptr, 0);
      QueryOutcome p = RunLocal(setup.runner.get(), setup.timed.get(),
                                spec.query, nullptr, 0);
      if (!q.status.ok()) Die("1-thread probe: " + q.status.ToString());
      if (i == 0) continue;  // the first 1-thread query warms its runner
      t1.push_back(q.exec_ms);
      tp.push_back(p.exec_ms);
    }
    lv["engine.parallel_efficiency"] =
        Median(t1) / (static_cast<double>(threads) * Median(tp));
  }
  FinishLayers(lv, report);
  if (!opt.spans_path.empty()) log.Write(opt.spans_path);
}

void MapManySamples(const Options& opt, Report* report) {
  LocalSpec spec;
  spec.query =
      "R = MAP(n AS COUNT, s AS SUM(signal)) PANELS ENCODE;\n"
      "MATERIALIZE R;\n";
  {
    gdm::GenomeAssembly genome = gdm::GenomeAssembly::HumanLike(22, 80000000);
    sim::PeakDatasetOptions panels;
    panels.num_samples = 8;
    panels.peaks_per_sample = 400;
    spec.blobs.push_back(Encode(sim::GeneratePeakDataset(
        genome, panels, SubSeed(opt.seed, 13), "PANELS")));
    sim::PeakDatasetOptions peaks;
    peaks.num_samples = 96;
    peaks.peaks_per_sample = 25000;
    spec.blobs.push_back(Encode(sim::GeneratePeakDataset(
        genome, peaks, SubSeed(opt.seed, 7), "ENCODE")));
  }
  RunLocalWorkload(opt, spec, /*probe_efficiency=*/true, report);
}

void JoinCoverSelect(const Options& opt, Report* report) {
  LocalSpec spec;
  // HI2 repeats HI (common-subexpression elimination folds it), STRONG
  // fuses into its JOIN, and HI / ACT are shared by several sinks.
  spec.query =
      "HI = SELECT(dataType == 'ChipSeq'; region: score >= 900) ENCODE;\n"
      "ACT = COVER(2, ANY) HI;\n"
      "GENES = SELECT(annType == 'gene') ANNOTATIONS;\n"
      "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
      "NEAR = JOIN(DLE(20000); CAT) HI GENES;\n"
      "HI2 = SELECT(dataType == 'ChipSeq'; region: score >= 900) ENCODE;\n"
      "CLOSEST = JOIN(MD(1); RIGHT) PROMS HI2;\n"
      "STRONG = SELECT(region: score >= 950) CLOSEST;\n"
      "LONELY = DIFFERENCE() HI ACT;\n"
      "MATERIALIZE ACT;\n"
      "MATERIALIZE NEAR;\n"
      "MATERIALIZE STRONG;\n"
      "MATERIALIZE LONELY;\n";
  {
    gdm::GenomeAssembly genome = gdm::GenomeAssembly::HumanLike(12);
    sim::PeakDatasetOptions peaks;
    peaks.num_samples = 8;
    peaks.peaks_per_sample = 25000;
    spec.blobs.push_back(Encode(sim::GeneratePeakDataset(
        genome, peaks, SubSeed(opt.seed, 7), "ENCODE")));
    sim::GeneCatalog genes =
        sim::GenerateGenes(genome, 3000, SubSeed(opt.seed, 21));
    spec.blobs.push_back(Encode(sim::GenerateAnnotations(
        genome, genes, {}, SubSeed(opt.seed, 22), "ANNOTATIONS")));
  }
  RunLocalWorkload(opt, spec, /*probe_efficiency=*/false, report);
}

// ---------------------------------------------------------------------------
// serve_mixed_rw: open loop into serve::SessionManager with publishes.

std::string ServeQuery(int threshold) {
  return "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
         "PEAKS = SELECT(dataType == 'ChipSeq'; region: score >= " +
         std::to_string(threshold) +
         ") ENCODE;\n"
         "R = MAP(peak_count AS COUNT) PROMS PEAKS;\n"
         "MATERIALIZE R;\n";
}

constexpr double kReferenceQps = 200;
constexpr double kLadderQps[] = {100, 400, 800};
constexpr double kLatencyLimitMs = 50;
constexpr int kRepeatedBindings[] = {200, 400, 600, 800};
constexpr int kServeVerifyEvery = 16;  ///< keep every k-th response to check

struct Request {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t submitted_ns = 0;
  std::atomic<int64_t> done_ns{0};
  int threshold = 0;
  bool refused = false;
  bool ok = false;
  bool hit = false;
  double queue_ms = 0;
  double exec_ms = 0;
  serve::ResultCache::Results results;  ///< kept for every k-th request
};

struct Rung {
  double qps = 0;
  std::vector<double> executed_ms, hit_ms, late_ms;
  uint64_t failed = 0;  ///< refused, shed or errored
  double backlog_first = 0, backlog_last = 0;
  size_t backlog_max = 0;
  bool passes = false;
};

/// Declared catalog first, so the manager's workers stop before the
/// catalog they read is destroyed.
struct ServeSetup {
  std::unique_ptr<serve::ServeCatalog> catalog;
  std::unique_ptr<serve::SessionManager> manager;
  double decode_ms = 0;
  double decoded_mb = 0;
};

void ServeMixedRw(const Options& opt, Report* report) {
  const size_t workers = std::max<size_t>(1, report->hardware_threads - 1);
  report->engine_threads = 1;
  std::vector<std::string> blobs;
  {
    gdm::GenomeAssembly genome = gdm::GenomeAssembly::HumanLike(8, 60000000);
    sim::PeakDatasetOptions popt;
    popt.num_samples = 6;
    popt.peaks_per_sample = 2500;
    blobs.push_back(Encode(sim::GeneratePeakDataset(
        genome, popt, SubSeed(opt.seed, 7), "ENCODE")));
    sim::PeakDatasetOptions panels;
    panels.num_samples = 4;
    panels.peaks_per_sample = 200;
    blobs.push_back(Encode(sim::GeneratePeakDataset(
        genome, panels, SubSeed(opt.seed, 13), "PANELS")));
    sim::GeneCatalog genes =
        sim::GenerateGenes(genome, 800, SubSeed(opt.seed, 21));
    blobs.push_back(Encode(sim::GenerateAnnotations(
        genome, genes, {}, SubSeed(opt.seed, 22), "ANNOTATIONS")));
  }
  const std::string& encode_blob = blobs[0];

  // Fresh literals: every threshold in [101, 999] but the repeated ones,
  // in a seeded order.
  std::vector<int> fresh;
  for (int x = 101; x <= 999; ++x) {
    if (std::find(std::begin(kRepeatedBindings), std::end(kRepeatedBindings),
                  x) == std::end(kRepeatedBindings)) {
      fresh.push_back(x);
    }
  }
  for (size_t i = fresh.size(); i > 1; --i) {
    size_t j = Mix64(opt.seed * 31 + i) % i;
    std::swap(fresh[i - 1], fresh[j]);
  }

  serve::ServeOptions sopts;
  sopts.workers = workers;
  sopts.engine_threads = 1;
  sopts.default_deadline_ms = 5 * kLatencyLimitMs;

  ServeSetup setup;
  std::vector<double> decode_ms, decode_mb_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.manager.reset();  // release the previous set-up, manager first
    setup = ServeSetup{};
    int64_t t0 = NowNs();
    ServeSetup s;
    s.catalog = std::make_unique<serve::ServeCatalog>();
    for (const std::string& blob : blobs) {
      Decoded d = Decode(blob);
      s.decode_ms += d.ms;
      s.decoded_mb += Mb(static_cast<double>(blob.size()));
      s.catalog->Publish(std::move(d.dataset));
    }
    s.manager = std::make_unique<serve::SessionManager>(s.catalog.get(), sopts);
    for (int x : kRepeatedBindings) {
      serve::ServeResponse r = s.manager->Execute(ServeQuery(x));
      if (!r.status.ok()) Die("warm-up query: " + r.status.ToString());
    }
    report->setup_s.push_back(NsToMs(NowNs() - t0) / 1000.0);
    decode_ms.push_back(s.decode_ms);
    decode_mb_s.push_back(s.decoded_mb / (s.decode_ms / 1000.0));
    setup = std::move(s);
  }

  // Reference hashes, memoized per threshold; republished ENCODE is decoded
  // from the same bytes, so one reference holds for every version.
  std::map<int, uint64_t> want;
  auto reference = [&](int x) {
    auto it = want.find(x);
    if (it != want.end()) return it->second;
    core::QueryRunner runner;
    serve::ServeCatalog* catalog = setup.catalog.get();
    runner.set_source_provider([catalog](const std::string& name) {
      return catalog->Resolve(name).data;
    });
    uint64_t h = HashResults(Unwrap(runner.Run(ServeQuery(x)), "reference"));
    want[x] = h;
    return h;
  };
  for (int i = 0; i < 6; ++i) {
    int x = i < 4 ? kRepeatedBindings[i] : fresh[fresh.size() - 1 - i];
    serve::ServeResponse r = setup.manager->Execute(ServeQuery(x));
    ++report->attempted;
    if (!r.status.ok() || HashResults(*r.results) != reference(x)) {
      ++report->failed;
      report->Note("setup_check", "serve output differs from reference");
    }
  }

  // Writer: decode ENCODE from .gdmz and republish it once a second.
  std::mutex wmu;
  std::condition_variable wcv;
  bool stop = false;
  std::vector<double> publish_ms;
  std::thread writer([&] {
    auto next = Clock::now() + std::chrono::seconds(1);
    std::unique_lock<std::mutex> lock(wmu);
    while (!wcv.wait_until(lock, next, [&] { return stop; })) {
      lock.unlock();
      int64_t t0 = NowNs();
      Decoded d = Decode(encode_blob);
      setup.catalog->Publish(std::move(d.dataset));
      double ms = NsToMs(NowNs() - t0);
      lock.lock();
      publish_ms.push_back(ms);
      next += std::chrono::seconds(1);
    }
  });

  serve::SessionManager& manager = *setup.manager;
  size_t fresh_next = 0, request_index = 0;
  std::vector<int> checked;  // thresholds of requests kept for checking
  auto run_rung = [&](double qps, double seconds, Rung* rung,
                      std::vector<std::unique_ptr<Request>>* keep) {
    rung->qps = qps;
    size_t n = static_cast<size_t>(qps * seconds);
    std::vector<std::unique_ptr<Request>> reqs;
    reqs.reserve(n);
    std::atomic<size_t> responded{0};
    std::vector<double> backlog;
    int64_t start = NowNs() + 2000000;
    for (size_t i = 0; i < n; ++i, ++request_index) {
      auto req = std::make_unique<Request>();
      req->due_ns =
          start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / qps);
      req->threshold = request_index % 2 == 0
                           ? kRepeatedBindings[(request_index / 2) % 4]
                           : fresh[fresh_next++ % fresh.size()];
      bool keep_results = request_index % kServeVerifyEvery == 0;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(req->due_ns)));
      Request* r = req.get();
      r->sent_ns = NowNs();
      Result<uint64_t> id = manager.Submit(
          ServeQuery(r->threshold),
          [r, keep_results, &responded](const serve::ServeResponse& resp) {
            int64_t done = NowNs();
            r->ok = resp.status.ok();
            r->hit = resp.result_cache_hit;
            r->queue_ms = resp.queue_ms;
            r->exec_ms = resp.exec_ms;
            if (keep_results && r->ok) r->results = resp.results;
            r->done_ns.store(done, std::memory_order_release);
            responded.fetch_add(1, std::memory_order_acq_rel);
          });
      r->submitted_ns = NowNs();
      if (!id.ok()) {
        r->refused = true;
        r->done_ns.store(r->submitted_ns, std::memory_order_release);
        responded.fetch_add(1, std::memory_order_acq_rel);
      }
      size_t outstanding = i + 1 - responded.load(std::memory_order_acquire);
      backlog.push_back(static_cast<double>(outstanding));
      rung->backlog_max = std::max(rung->backlog_max, outstanding);
      reqs.push_back(std::move(req));
    }
    manager.Drain();
    size_t q = std::max<size_t>(1, backlog.size() / 4);
    rung->backlog_first = Mean({backlog.begin(), backlog.begin() + q});
    rung->backlog_last = Mean({backlog.end() - q, backlog.end()});
    for (auto& req : reqs) {
      double ms = NsToMs(req->done_ns.load(std::memory_order_acquire) -
                         req->due_ns);
      rung->late_ms.push_back(NsToMs(req->sent_ns - req->due_ns));
      if (req->refused || !req->ok) {
        ++rung->failed;
      } else {
        (req->hit ? rung->hit_ms : rung->executed_ms).push_back(ms);
      }
    }
    std::vector<double> exec = rung->executed_ms;
    bool tail_ok = Quantile(exec, 0.99) <= kLatencyLimitMs;
    bool backlog_ok = rung->backlog_last <=
                      rung->backlog_first + static_cast<double>(workers);
    rung->passes = rung->failed == 0 && tail_ok && backlog_ok;
    if (keep != nullptr) {
      for (auto& req : reqs) keep->push_back(std::move(req));
    }
  };

  // Reference rate for most of the run, then the ladder's other rates.
  serve::PlanCache::Stats plan0 = manager.plan_cache().stats();
  serve::ResultCache::Stats res0 = manager.result_cache().stats();
  Rung ref;
  std::vector<std::unique_ptr<Request>> ref_reqs;
  run_rung(kReferenceQps, opt.seconds * 0.7, &ref, &ref_reqs);
  serve::PlanCache::Stats plan1 = manager.plan_cache().stats();
  serve::ResultCache::Stats res1 = manager.result_cache().stats();
  std::vector<Rung> ladder(std::size(kLadderQps));
  for (size_t i = 0; i < ladder.size(); ++i) {
    run_rung(kLadderQps[i], opt.seconds * 0.1, &ladder[i], nullptr);
  }
  {
    std::lock_guard<std::mutex> lock(wmu);
    stop = true;
  }
  wcv.notify_all();
  writer.join();

  report->attempted += ref_reqs.size();
  report->failed += ref.failed;
  for (auto& req : ref_reqs) {
    if (req->results != nullptr &&
        HashResults(*req->results) != reference(req->threshold)) {
      ++report->failed;
      report->Note("mismatch", "served output differs from reference");
    }
  }
  CommonE2e(ref.executed_ms, 0.99, report);
  ladder.insert(ladder.begin(), std::move(ref));
  for (const Rung& r : ladder) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "executed p99 %.2f ms, backlog %.1f -> %.1f, failed %" PRIu64
                  ", %s",
                  Quantile(r.executed_ms, 0.99), r.backlog_first,
                  r.backlog_last, r.failed, r.passes ? "passes" : "misses");
    report->Note("rung_" + std::to_string(static_cast<int>(r.qps)) + "_qps",
                 buf);
  }
  const Rung& ref_rung = ladder.front();
  if (!opt.trace) return;

  // Spans of the reference-rate requests, rebuilt from the timestamps the
  // generator took and the queue/exec figures each response carried.
  SpanLog log;
  std::vector<double> submit_us, queue_ms, exec_ms, wall_ms;
  uint64_t qid = 0;
  for (auto& req : ref_reqs) {
    ++qid;
    submit_us.push_back(NsToMs(req->submitted_ns - req->sent_ns) * 1000);
    if (req->refused || !req->ok || req->hit) continue;
    int64_t done = req->done_ns.load();
    int64_t root = log.Add("request", req->due_ns, done, -1, qid);
    log.Add("serve.generator_late", req->due_ns, req->sent_ns, root, qid);
    log.Add("serve.submit", req->sent_ns, req->submitted_ns, root, qid);
    // From Submit's return to the response: the queue and execution figures
    // the response carries; the rest (plan and result cache, response
    // dispatch) is the serve layer's own time.
    int64_t served = log.Add("serve.other", req->submitted_ns, done, root, qid);
    int64_t exec_start = done - static_cast<int64_t>(req->exec_ms * 1e6);
    int64_t queue_start =
        exec_start - static_cast<int64_t>(req->queue_ms * 1e6);
    log.Add("serve.queue", queue_start, exec_start, served, qid);
    log.Add("serve.exec", exec_start, done, served, qid);
    queue_ms.push_back(req->queue_ms);
    exec_ms.push_back(req->exec_ms);
    wall_ms.push_back(NsToMs(done - req->due_ns));
  }
  std::map<std::string, double> self = log.SelfMsByName();
  LayerValues lv;
  double wall = Mean(wall_ms);
  double tn = std::max<size_t>(wall_ms.size(), 1);
  lv["obs.traced_wall_ms"] = wall;
  lv["obs.unattributed_pct"] = wall > 0 ? self["request"] / tn / wall * 100 : 0;
  lv["obs.trace_overhead_pct"] = 0;  // spans are rebuilt after the run
  lv["core.parse_ms"] = ParseProbeMs(ServeQuery(kRepeatedBindings[0]));
  lv["serve.other_ms"] = self["serve.other"] / tn;
  lv["serve.queue_p50_ms"] = Median(queue_ms);
  lv["serve.queue_tail_ms"] = Quantile(queue_ms, 0.99);
  lv["serve.exec_ms"] = Median(exec_ms);
  lv["serve.submit_us"] = Median(submit_us);
  lv["serve.backlog_max"] = static_cast<double>(ref_rung.backlog_max);
  uint64_t plan_total = (plan1.hits + plan1.rebinds + plan1.misses) -
                        (plan0.hits + plan0.rebinds + plan0.misses);
  if (plan_total > 0) {
    lv["serve.plan_hit_rate"] =
        static_cast<double>(plan1.hits - plan0.hits) / plan_total;
    lv["serve.plan_rebind_rate"] =
        static_cast<double>(plan1.rebinds - plan0.rebinds) / plan_total;
  }
  uint64_t res_total = (res1.hits + res1.misses) - (res0.hits + res0.misses);
  if (res_total > 0) {
    lv["serve.result_hit_rate"] =
        static_cast<double>(res1.hits - res0.hits) / res_total;
  }
  lv["serve.result_invalidations"] =
      static_cast<double>(res1.invalidations - res0.invalidations);
  lv["serve.generator_late_ms"] = Quantile(ref_rung.late_ms, 0.99);
  lv["serve.hit_latency_p50_ms"] = Median(ref_rung.hit_ms);
  {
    std::lock_guard<std::mutex> lock(wmu);
    lv["serve.publish_p50_ms"] = Median(publish_ms);
  }
  double max_rate = 0;
  for (const Rung& r : ladder) {
    if (r.passes) max_rate = std::max(max_rate, r.qps);
  }
  lv["serve.max_rate_qps"] = max_rate;
  lv["io.gdmz_decode_ms"] = Median(decode_ms);
  lv["io.gdmz_decode_mb_per_s"] = Median(decode_mb_s);
  FinishLayers(lv, report);
  if (!opt.spans_path.empty()) log.Write(opt.spans_path);
}

// ---------------------------------------------------------------------------
// federated_broadcast: Coordinator::RunEverywhere over faulty simulated links.

constexpr int kSites = 3;
constexpr size_t kMakespanBroadcasts = 16;  ///< fixed count, so it repeats

/// Declared nodes first, so the coordinator goes before the nodes it calls.
struct FedSetup {
  std::vector<std::unique_ptr<repo::FederatedNode>> nodes;
  std::unique_ptr<repo::Coordinator> coordinator;
  double decode_ms = 0;
  double decoded_mb = 0;
};

void FederatedBroadcast(const Options& opt, Report* report) {
  report->engine_threads = 1;
  const std::string query = ServeQuery(500);
  std::vector<std::vector<std::string>> site_blobs(kSites);
  {
    gdm::GenomeAssembly genome = gdm::GenomeAssembly::HumanLike(8, 60000000);
    for (int s = 0; s < kSites; ++s) {
      sim::PeakDatasetOptions popt;
      popt.num_samples = 6;
      popt.peaks_per_sample = 10000;
      site_blobs[s].push_back(Encode(sim::GeneratePeakDataset(
          genome, popt, SubSeed(opt.seed, 100 + s), "ENCODE")));
      sim::GeneCatalog genes =
          sim::GenerateGenes(genome, 800, SubSeed(opt.seed, 200 + s));
      site_blobs[s].push_back(Encode(sim::GenerateAnnotations(
          genome, genes, {}, SubSeed(opt.seed, 300 + s), "ANNOTATIONS")));
    }
  }
  const char* names[kSites] = {"milan", "boston", "tokyo"};

  FedSetup setup;
  std::vector<double> decode_ms, decode_mb_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.coordinator.reset();  // release the previous set-up first
    setup = FedSetup{};
    int64_t t0 = NowNs();
    FedSetup f;
    f.coordinator = std::make_unique<repo::Coordinator>();
    repo::FedPolicies policies;
    policies.retry.max_attempts = 8;
    policies.retry.deadline_us = 100000;  // 5x the link RTT
    f.coordinator->set_policies(policies);
    for (int s = 0; s < kSites; ++s) {
      auto node = std::make_unique<repo::FederatedNode>(names[s]);
      node->set_chunk_bytes(64 << 10);
      for (const std::string& blob : site_blobs[s]) {
        Decoded d = Decode(blob);
        f.decode_ms += d.ms;
        f.decoded_mb += Mb(static_cast<double>(blob.size()));
        node->catalog()->Put(std::move(d.dataset));
      }
      f.coordinator->AddNode(node.get());
      repo::LinkProfile link;
      link.latency_us = 20000;
      link.bandwidth_bytes_per_sec = 10'000'000;
      link.drop_rate = 0.03;
      link.corrupt_rate = 0.02;
      link.seed = SubSeed(opt.seed, 400 + s);
      f.coordinator->transport()->SetLinkProfile(names[s], link);
      f.nodes.push_back(std::move(node));
    }
    auto warm = f.coordinator->RunEverywhere(query);
    if (!warm.ok()) Die("warm-up broadcast: " + warm.status().ToString());
    report->setup_s.push_back(NsToMs(NowNs() - t0) / 1000.0);
    decode_ms.push_back(f.decode_ms);
    decode_mb_s.push_back(f.decoded_mb / (f.decode_ms / 1000.0));
    setup = std::move(f);
  }

  // Reference: each site's query run locally by the ReferenceExecutor.
  std::map<std::string, uint64_t> want;
  std::map<std::string, gdm::Dataset> site_result;
  for (auto& node : setup.nodes) {
    core::QueryRunner runner;
    for (const char* ds : {"ENCODE", "ANNOTATIONS"}) {
      runner.RegisterDataset(*node->catalog()->Get(ds));
    }
    auto out = Unwrap(runner.Run(query), "reference run");
    want[node->name()] = HashDataset(out.at("R"));
    site_result[node->name()] = std::move(out.at("R"));
  }
  auto check = [&](const repo::FederatedResult& r) {
    if (r.sites_answered != static_cast<size_t>(kSites)) return false;
    for (const auto& [site, h] : want) {
      auto it = r.datasets.find("R@" + site);
      if (it == r.datasets.end() || HashDataset(it->second) != h) return false;
    }
    return true;
  };

  repo::Coordinator& coord = *setup.coordinator;
  repo::ProtocolCounters c0 = coord.counters();
  repo::FedStats f0 = coord.fed_stats();
  SpanLog log;
  // The transport simulates the wire without sleeping, so the latency a
  // user of a broadcast waits is its real compute time plus its SimClock
  // wire time: RunEverywhere visits the sites one after another.
  std::vector<double> latency_ms, untraced_ms, traced_ms, makespan_ms;
  size_t n = 0, traced_n = 0;
  int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  while (NowNs() < deadline || n < kMakespanBroadcasts) {
    bool traced = opt.trace && n % 2 == 1;
    uint64_t v0 = coord.transport()->clock().now_us();
    int64_t t0 = NowNs();
    int64_t root = traced ? log.Begin("query", -1, n + 1) : -1;
    int64_t span = traced ? log.Begin("repo.run_everywhere", root, n + 1) : -1;
    Result<repo::FederatedResult> r = coord.RunEverywhere(query);
    if (traced) {
      log.End(span);
      log.End(root);
      ++traced_n;
    }
    double ms = NsToMs(NowNs() - t0);
    double wire_ms =
        static_cast<double>(coord.transport()->clock().now_us() - v0) / 1000.0;
    if (n < kMakespanBroadcasts) makespan_ms.push_back(wire_ms);
    if (!traced) latency_ms.push_back(ms + wire_ms);
    ++report->attempted;
    if (!r.ok() || !check(r.value())) {
      ++report->failed;
      report->Note("mismatch", r.ok() ? r.value().Annotation()
                                      : r.status().ToString());
    }
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ++n;
  }
  repo::ProtocolCounters c1 = coord.counters();
  repo::FedStats f1 = coord.fed_stats();
  CommonE2e(latency_ms, 0.75, report);
  report->Note("makespan_ms_mean_first16", Num(Mean(makespan_ms)));
  if (!opt.trace) return;

  LayerValues lv;
  double per = static_cast<double>(n);
  lv["repo.makespan_ms"] = Mean(makespan_ms);
  lv["repo.broadcast_wall_ms"] = Median(untraced_ms);
  lv["repo.requests"] = static_cast<double>(c1.requests - c0.requests) / per;
  lv["repo.bytes_sent"] =
      static_cast<double>(c1.bytes_sent - c0.bytes_sent) / per;
  lv["repo.bytes_received"] =
      static_cast<double>(c1.bytes_received - c0.bytes_received) / per;
  lv["repo.retries"] = static_cast<double>(f1.retries - f0.retries) / per;
  lv["repo.timeouts"] = static_cast<double>(f1.timeouts - f0.timeouts) / per;
  lv["repo.corruptions"] =
      static_cast<double>(f1.corruptions - f0.corruptions) / per;
  lv["repo.hedges"] = static_cast<double>(f1.hedges - f0.hedges) / per;
  lv["repo.wasted_bytes"] =
      static_cast<double>(f1.wasted_bytes - f0.wasted_bytes) / per;

  // Direct handler calls on one node, bypassing the wire.
  repo::FederatedNode* node = setup.nodes.front().get();
  lv["repo.compile_ms"] =
      MedianMs(5, [&] { (void)node->HandleCompile(query); });
  lv["repo.execute_ms"] = MedianMs(5, [&] {
    std::string id = Unwrap(node->HandleExecute(query), "execute");
    node->ReleaseStaged(id);
  });
  const gdm::Dataset& shipped = site_result[node->name()];
  std::string wire;
  lv["io.gdmz_encode_ms"] =
      MedianMs(5, [&] { wire = io::WriteGdmzString(shipped); });
  lv["io.gdmz_bytes_per_region"] =
      shipped.TotalRegions()
          ? static_cast<double>(wire.size()) /
                static_cast<double>(shipped.TotalRegions())
          : 0;
  lv["io.gdmz_decode_ms"] = Median(decode_ms);
  lv["io.gdmz_decode_mb_per_s"] = Median(decode_mb_s);
  lv["core.parse_ms"] = ParseProbeMs(query);
  std::map<std::string, double> self = log.SelfMsByName();
  double tn = std::max<size_t>(traced_n, 1);
  double wall = Mean(traced_ms);
  lv["obs.traced_wall_ms"] = wall;
  lv["obs.unattributed_pct"] = wall > 0 ? self["query"] / tn / wall * 100 : 0;
  lv["obs.trace_overhead_pct"] = OverheadPct(traced_ms, untraced_ms);
  FinishLayers(lv, report);
  if (!opt.spans_path.empty()) log.Write(opt.spans_path);
}

// ---------------------------------------------------------------------------

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--spans") {
      opt.spans_path = value();
    } else {
      Die("unknown argument " + a);
    }
  }
  if (opt.seconds <= 0 || opt.seconds > 120) Die("--seconds out of range");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = ParseArgs(argc, argv);
  Report report;
  report.workload = opt.workload;
  report.seed = opt.seed;
  report.seconds = opt.seconds;
  report.trace = opt.trace;
  report.hardware_threads = HardwareThreads();
  const std::map<std::string, void (*)(const Options&, Report*)> workloads = {
      {"map_many_samples", MapManySamples},
      {"join_cover_select", JoinCoverSelect},
      {"serve_mixed_rw", ServeMixedRw},
      {"federated_broadcast", FederatedBroadcast},
  };
  auto it = workloads.find(opt.workload);
  if (it == workloads.end()) Die("unknown workload '" + opt.workload + "'");
  it->second(opt, &report);
  PrintReport(report);
  return 0;
}
