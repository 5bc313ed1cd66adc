// perfbench: the repository benchmark. One workload per run, inputs from a
// seed, outputs checked against FSA-BLAST, metrics printed by name with
// unit and clock; the last stdout line is the JSON result.
//
//   perfbench --workload interactive --seed 7 --seconds 20 --trace 0
//
// --trace 0 runs the public API untraced and prints the end-to-end metrics;
// --trace 1 pairs each untraced search with a layer-by-layer traced one,
// then runs the open-loop service probe, and prints the per-layer metrics.
// See README.md for the metric definitions.
#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "baselines/cpu.hpp"
#include "core/kernels.hpp"
#include "core/search_session.hpp"
#include "core/service.hpp"
#include "core/sharded_session.hpp"
#include "layers.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace core = repro::core;
namespace blast = repro::blast;
using perfbench::Inputs;
using perfbench::Shape;
using perfbench::WorkloadSpec;
using Clock = std::chrono::steady_clock;

namespace {

// Share of the traced wall that layer spans may leave uncovered.
constexpr double kReconcileTolerance = 0.10;
// Set-ups before and after the measured phase; setup_s is their median.
// Splitting them puts two windows some seconds apart under the median, so
// one burst of host noise cannot set it.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 5;
// The service probe of a traced closed-loop run lasts this share of
// --seconds.
constexpr double kServiceProbeShare = 0.4;

double ms_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// The highest whole percentile with at least ten samples beyond it
/// (nearest rank); the median when there are too few samples.
struct Tail {
  double value = 0.0;
  int percentile = 50;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const int p = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n)));
  if (p < 50) {
    tail.value = median(v);
    return tail;
  }
  tail.percentile = p;
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  tail.value = v[std::max<std::size_t>(rank, 1) - 1];
  return tail;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// The full effective configuration, so a result is reproducible from its
/// own provenance.
std::string config_json(const core::Config& c) {
  const char* strategy = c.strategy == core::ExtensionStrategy::kDiagonal ? "diagonal"
                         : c.strategy == core::ExtensionStrategy::kHit   ? "hit"
                                                                         : "window";
  const char* scoring = c.scoring == core::ScoringMode::kPssm     ? "pssm"
                        : c.scoring == core::ScoringMode::kBlosum ? "blosum"
                                                                  : "auto";
  const auto& p = c.params;
  std::ostringstream o;
  o << "{\"num_bins_per_warp\": " << c.num_bins_per_warp
    << ", \"detection_blocks\": " << c.detection_blocks
    << ", \"detection_block_threads\": " << c.detection_block_threads
    << ", \"bin_capacity\": " << c.bin_capacity
    << ", \"max_bin_retries\": " << c.max_bin_retries
    << ", \"max_bin_capacity\": " << c.max_bin_capacity
    << ", \"strategy\": \"" << strategy << "\", \"scoring\": \"" << scoring
    << "\", \"window_size\": " << c.window_size
    << ", \"use_readonly_cache\": " << (c.use_readonly_cache ? "true" : "false")
    << ", \"auto_pssm_max_query\": " << c.auto_pssm_max_query
    << ", \"prefilter\": \"" << core::prefilter_mode_name(c.prefilter)
    << "\", \"prefilter_threshold\": " << c.prefilter_threshold
    << ", \"prefilter_backend_switch\": " << json_number(c.prefilter_backend_switch)
    << ", \"db_blocks\": " << c.db_blocks << ", \"cpu_threads\": " << c.cpu_threads
    << ", \"engine_workers\": " << c.engine_workers << ", \"shards\": " << c.shards
    << ", \"simtcheck\": " << (c.simtcheck ? "true" : "false")
    << ", \"svccheck\": " << (c.svccheck ? "true" : "false")
    << ", \"params\": {\"word_length\": " << p.word_length
    << ", \"neighbor_threshold\": " << p.neighbor_threshold
    << ", \"two_hit_window\": " << p.two_hit_window
    << ", \"ungapped_xdrop\": " << p.ungapped_xdrop
    << ", \"ungapped_cutoff\": " << p.ungapped_cutoff
    << ", \"gapped_xdrop\": " << p.gapped_xdrop << ", \"gap_open\": " << p.gap_open
    << ", \"gap_extend\": " << p.gap_extend
    << ", \"max_evalue\": " << json_number(p.max_evalue)
    << ", \"one_hit\": " << (p.one_hit ? "true" : "false") << "}}";
  return o.str();
}

std::string service_config_json(const core::ServiceConfig& s) {
  std::ostringstream o;
  o << "{\"queue_capacity\": " << s.queue_capacity
    << ", \"per_priority_limit\": " << s.per_priority_limit
    << ", \"shards\": " << s.shards
    << ", \"max_transient_retries\": " << s.max_transient_retries
    << ", \"backoff_initial_ms\": " << json_number(s.backoff_initial_ms)
    << ", \"backoff_multiplier\": " << json_number(s.backoff_multiplier)
    << ", \"backoff_max_ms\": " << json_number(s.backoff_max_ms)
    << ", \"slo_ms\": " << json_number(s.slo_ms) << "}";
  return o.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double service_rate_qps = 0.0;
  double scale = 1.0;
  bool selftest_oracle = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest-oracle") {
      o.selftest_oracle = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      seen_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value != "0";
    } else if (arg == "--service-rate-qps") {
      o.service_rate_qps = std::stod(value);
    } else if (arg == "--scale") {
      o.scale = std::stod(value);
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!seen_workload && !o.selftest_oracle)
    throw std::invalid_argument("--workload is required");
  if (o.seconds <= 0.0 || o.scale <= 0.0 || o.scale > 1.0)
    throw std::invalid_argument("--seconds must be > 0 and --scale in (0, 1]");
  return o;
}

// --- correctness oracle ----------------------------------------------------

/// FSA-BLAST alignments per distinct query, computed once, untimed.
class Oracle {
 public:
  Oracle(const Inputs& inputs, const core::Config& config) {
    for (const auto& q : inputs.queries)
      expected_.push_back(
          repro::baselines::fsa_blast_search(q, inputs.db, config.params)
              .alignments);
  }
  [[nodiscard]] bool matches(std::size_t query,
                             const std::vector<blast::Alignment>& got) const {
    return got == expected_[query];
  }
  [[nodiscard]] const std::vector<blast::Alignment>& expected(
      std::size_t query) const {
    return expected_[query];
  }

 private:
  std::vector<std::vector<blast::Alignment>> expected_;
};

// --- one measured request ----------------------------------------------------

struct Sample {
  std::size_t query = 0;
  double latency_ms = 0.0;     ///< from scheduled send to result
  double queue_wait_ms = 0.0;  ///< before the search started
  double run_ms = 0.0;         ///< the search itself
  double lag_ms = 0.0;         ///< how late the client sent it
  double modeled_ms = 0.0;     ///< kernels + H2D + D2H
  double overlapped_ms = 0.0;  ///< modeled Fig. 12 makespan
  bool completed = false;      ///< the search returned a report
  bool ok = false;             ///< completed with FSA-identical alignments
  bool within_limit = false;
  bool rejected = false;
  bool expired = false;
  std::uint64_t ladder_retries = 0;
  std::uint64_t degraded_blocks = 0;
  std::uint64_t transient_retries = 0;
};

double modeled_device_ms(const core::SearchReport& r) {
  return r.gpu_critical_ms() + r.h2d_ms + r.d2h_ms;
}

Sample sample_from(const core::SearchReport& r, std::size_t query,
                   const Oracle& oracle) {
  Sample s;
  s.query = query;
  s.modeled_ms = modeled_device_ms(r);
  s.overlapped_ms = r.overlapped_total_seconds * 1e3;
  s.completed = true;
  s.ok = oracle.matches(query, r.result.alignments);
  s.within_limit = s.ok;
  for (const auto attempts : r.retry_counts) s.ladder_retries += attempts;
  s.degraded_blocks = r.degraded_blocks;
  return s;
}

struct Measured {
  std::vector<Sample> samples;
  double wall_s = 0.0;      ///< measured phase, host
  double schedule_s = 0.0;  ///< open loop: length of the arrival schedule
  std::vector<double> batch_modeled_ms;
  std::size_t errors = 0;   ///< searches that threw
};

// --- the three shapes, driven through the public API -------------------------

/// The session or service a workload runs on; built during set-up.
struct System {
  std::unique_ptr<core::SearchSession> session;
  std::unique_ptr<core::ShardedSession> fleet;
  std::unique_ptr<core::SearchService> service;
};

System build_system(const WorkloadSpec& spec, const Inputs& inputs) {
  System sys;
  const auto& warm = inputs.queries.front();
  switch (spec.shape) {
    case Shape::kInteractive:
      sys.session = std::make_unique<core::SearchSession>(spec.config, inputs.db);
      (void)sys.session->search(warm);
      break;
    case Shape::kFleetBatch:
      sys.fleet = std::make_unique<core::ShardedSession>(spec.config, inputs.db);
      (void)sys.fleet->search(warm);
      break;
    case Shape::kOpenLoop: {
      sys.service = std::make_unique<core::SearchService>(spec.config, inputs.db,
                                                          spec.service);
      const core::ServiceResult r = sys.service->search(warm);
      if (r.status != core::RequestStatus::kOk)
        throw std::runtime_error("warm-up request failed: " + r.message);
      break;
    }
  }
  return sys;
}

/// One closed-loop round: every distinct query once, in order.
void closed_round(const WorkloadSpec& spec, System& sys, const Inputs& inputs,
                  const Oracle& oracle, Measured& m,
                  Clock::time_point& last_done) {
  if (spec.shape == Shape::kInteractive) {
    for (std::size_t q = 0; q < inputs.queries.size(); ++q) {
      const auto start = Clock::now();
      const core::SearchReport r = sys.session->search(inputs.queries[q]);
      const auto done = Clock::now();
      Sample s = sample_from(r, q, oracle);
      s.lag_ms = s.queue_wait_ms = ms_since(last_done, start);
      s.run_ms = ms_since(start, done);
      s.latency_ms = s.queue_wait_ms + s.run_ms;
      m.samples.push_back(s);
      last_done = done;
    }
    return;
  }
  std::vector<std::span<const std::uint8_t>> batch;
  for (const auto& q : inputs.queries) batch.emplace_back(q);
  const auto start = Clock::now();
  const core::BatchReport r = sys.fleet->search_batch(batch);
  const auto done = Clock::now();
  const double gap_ms = ms_since(last_done, start);
  double waited_ms = gap_ms;
  for (std::size_t q = 0; q < r.reports.size(); ++q) {
    Sample s = sample_from(r.reports[q], q, oracle);
    s.lag_ms = gap_ms;
    s.queue_wait_ms = waited_ms;
    s.run_ms = r.per_query_wall_seconds[q] * 1e3;
    s.latency_ms = s.run_ms;
    waited_ms += s.run_ms;
    m.samples.push_back(s);
  }
  m.batch_modeled_ms.push_back(r.modeled_batch_seconds * 1e3);
  last_done = done;
}

/// The open loop: seeded Poisson arrivals at a fixed rate for `seconds`,
/// latency counted from each request's scheduled send time. The arrival
/// count is fixed at rate x seconds and the times are sorted uniform draws:
/// a Poisson process conditioned on its count, so every seed offers the
/// same load.
void open_loop(const WorkloadSpec& spec, System& sys, const Inputs& inputs,
               const Oracle& oracle, double rate_qps, double seconds,
               std::uint64_t seed, Measured& m) {
  repro::util::Rng rng(seed ^ 0xa11a1ULL);
  struct Sent {
    std::size_t query;
    double scheduled_ms;
    double sent_ms;
    std::future<core::ServiceResult> result;
  };
  std::vector<double> schedule_ms(
      static_cast<std::size_t>(std::max(1.0, std::round(rate_qps * seconds))));
  for (double& at : schedule_ms) at = rng.uniform() * seconds * 1e3;
  std::sort(schedule_ms.begin(), schedule_ms.end());
  std::vector<Sent> sent;
  const auto origin = Clock::now();
  for (std::size_t i = 0; i < schedule_ms.size(); ++i) {
    const double next_ms = schedule_ms[i];
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(next_ms)));
    core::SearchRequest request;
    const std::size_t q = i % inputs.queries.size();
    request.query = inputs.queries[q];
    request.priority = static_cast<core::RequestPriority>(i % core::kNumPriorities);
    request.deadline_ms = spec.deadline_ms;
    const double sent_ms = ms_since(origin, Clock::now());
    sent.push_back({q, next_ms, sent_ms, sys.service->submit(std::move(request))});
  }
  double last_done_ms = 0.0;
  for (Sent& s : sent) {
    const core::ServiceResult r = s.result.get();
    Sample sample;
    sample.query = s.query;
    if (r.status == core::RequestStatus::kOk ||
        r.status == core::RequestStatus::kDegraded)
      sample = sample_from(r.report, s.query, oracle);
    sample.lag_ms = s.sent_ms - s.scheduled_ms;
    sample.queue_wait_ms = r.queue_wait_ms;
    sample.run_ms = r.report.wall_ms;
    sample.latency_ms = sample.lag_ms + r.wall_ms;
    sample.rejected = r.status == core::RequestStatus::kRejected;
    sample.expired = r.status == core::RequestStatus::kDeadlineExceeded;
    sample.transient_retries = r.transient_retries;
    if (!sample.completed && !sample.rejected && !sample.expired) ++m.errors;
    sample.within_limit = sample.ok && sample.latency_ms <= spec.deadline_ms;
    last_done_ms = std::max(last_done_ms, s.sent_ms + r.wall_ms);
    m.samples.push_back(sample);
  }
  m.wall_s = last_done_ms / 1e3;
  m.schedule_s = seconds;
}

/// The service layer's probe in a traced closed-loop run: the open loop at
/// the fixed rate into a one-worker SearchService over the open-loop
/// workload's own small database, checked against its own oracle.
Measured service_probe(const Options& opt) {
  const WorkloadSpec spec = perfbench::workload_spec("service_openloop", opt.scale);
  const Inputs inputs = perfbench::make_inputs(spec, opt.seed);
  const Oracle oracle(inputs, spec.config);
  System sys = build_system(spec, inputs);
  Measured m;
  open_loop(spec, sys, inputs, oracle, opt.service_rate_qps,
            opt.seconds * kServiceProbeShare, opt.seed, m);
  return m;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;
  std::string note;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("%-34s %16s  %-6s  %-8s\n", "metric", "value", "unit", "clock");
  for (const auto& m : metrics)
    std::printf("%-34s %16.6f  %-6s  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str(), m.note.c_str());
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    o << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
      << json_number(metrics[i].value) << ", \"unit\": "
      << json_string(metrics[i].unit) << "}";
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

struct Totals {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< wrong + errors + rejected + expired
  std::size_t wrong = 0;
};

Totals totals_of(const Measured& m) {
  Totals t;
  t.attempted = m.samples.size();
  for (const Sample& s : m.samples) {
    if (!s.ok) ++t.failed;
    if (s.completed && !s.ok) ++t.wrong;
  }
  return t;
}

std::vector<Metric> end_to_end(const Measured& m, double setup_s) {
  std::vector<double> latency;
  std::vector<double> modeled;
  std::size_t ok = 0;
  for (const Sample& s : m.samples) {
    if (s.ok) {
      ++ok;
      latency.push_back(s.latency_ms);
      modeled.push_back(s.modeled_ms);
    }
  }
  const Tail tail = tail_of(latency);
  const double attempted = static_cast<double>(std::max<std::size_t>(m.samples.size(), 1));
  char note[96];
  std::snprintf(note, sizeof(note), "p%d of %zu samples", tail.percentile,
                tail.samples);
  return {
      {"throughput_qps", static_cast<double>(ok) / m.wall_s, "1/s", "host", ""},
      {"latency_p50_ms", median(latency), "ms", "host", ""},
      {"latency_tail_ms", tail.value, "ms", "host", note},
      {"modeled_device_ms_per_query", mean(modeled), "ms", "modeled", ""},
      {"setup_s", setup_s, "s", "host", "median of 9 set-ups"},
      {"ok_share", static_cast<double>(ok) / attempted, "share", "count",
       "1 - failed_share"},
  };
}

// --- the traced run ----------------------------------------------------------

struct TraceRun {
  perfbench::LayerLedger ledger;  ///< the query's own route
  perfbench::LayerLedger probe;   ///< the backend the route skips
  perfbench::ResidencyCost residency;
  double untraced_ms = 0.0;  ///< public-API wall of the traced queries
  std::size_t mismatches = 0;
};

std::vector<Metric> per_layer(const WorkloadSpec& spec, const Measured& m,
                              const Measured& service, const TraceRun& t) {
  const auto& L = t.ledger;
  // A layer off the workload's route is read from the probe ledger.
  auto source = [&](const char* layer) -> const perfbench::LayerLedger& {
    return L.host_ms.count(layer) != 0 ? L : t.probe;
  };
  auto per_query = [](const perfbench::LayerLedger& ledger, double total) {
    return ledger.queries == 0 ? 0.0
                               : total / static_cast<double>(ledger.queries);
  };
  auto host = [&](const char* layer) {
    const auto& ledger = source(layer);
    const auto it = ledger.host_ms.find(layer);
    return it == ledger.host_ms.end() ? 0.0 : per_query(ledger, it->second);
  };
  auto modeled = [&](const char* layer) {
    const auto& ledger = source(layer);
    const auto it = ledger.modeled_ms.find(layer);
    return it == ledger.modeled_ms.end() ? 0.0 : per_query(ledger, it->second);
  };
  auto route = [&](const char* layer) {
    return &source(layer) == &L ? std::string() : std::string("off-route probe");
  };
  const auto& fine = source("detection");
  const auto& filter_ledger = source("prefilter");
  auto kernel = [&](const char* name) {
    return fine.profile.has(name) ? fine.profile.at(name)
                                  : repro::simt::KernelStats{};
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  const char* sim_layers[] = {"prefilter", "detection", "assemble", "sort",
                              "filter",    "extension", "coarse"};
  double sim_host = 0.0;
  double sim_modeled = 0.0;
  for (const char* layer : sim_layers) {
    if (L.host_ms.count(layer) == 0) continue;  // route layers only
    sim_host += host(layer);
    sim_modeled += modeled(layer);
  }

  std::vector<double> overlapped;
  double retries = 0, degraded = 0;
  for (const Sample& s : m.samples) {
    if (s.ok) overlapped.push_back(s.overlapped_ms);
    retries += static_cast<double>(s.ladder_retries);
    degraded += static_cast<double>(s.degraded_blocks);
  }
  std::vector<double> wait, run, lag;
  double rejected = 0, expired = 0, transient = 0, good = 0;
  for (const Sample& s : service.samples) {
    wait.push_back(s.queue_wait_ms);
    run.push_back(s.run_ms);
    lag.push_back(s.lag_ms);
    rejected += s.rejected ? 1 : 0;
    expired += s.expired ? 1 : 0;
    transient += static_cast<double>(s.transient_retries);
    good += s.within_limit ? 1 : 0;
  }
  const double modeled_batch = spec.shape == Shape::kFleetBatch
                                   ? mean(m.batch_modeled_ms)
                                   : mean(overlapped);
  const double ext_per_hit_ns =
      ratio(host("extension") * 1e6,
            per_query(fine, static_cast<double>(fine.hits_after_filter)));
  const auto detection = kernel(core::kKernelDetection);
  const auto extension = kernel(core::kKernelExtension);
  const std::string probe =
      &service == &m ? std::string() : std::string("service probe");
  return {
      {"query_context.host_ms", host("query_context"), "ms", "host", ""},
      {"residency.host_ms", t.residency.host_ms, "ms", "host", "one-time upload"},
      {"residency.h2d_modeled_ms", t.residency.h2d_modeled_ms, "ms", "modeled", "one-time upload"},
      {"residency.upload_bytes", static_cast<double>(t.residency.upload_bytes), "B", "count", ""},
      {"prefilter.host_ms", host("prefilter"), "ms", "host", route("prefilter")},
      {"prefilter.modeled_ms", modeled("prefilter"), "ms", "modeled", route("prefilter")},
      {"prefilter.pass_rate", ratio(static_cast<double>(filter_ledger.prefilter_survivors), static_cast<double>(filter_ledger.prefilter_seqs)), "share", "count", route("prefilter")},
      {"detection.host_ms", host("detection"), "ms", "host", route("detection")},
      {"detection.modeled_ms", modeled("detection"), "ms", "modeled", route("detection")},
      {"detection.hits", per_query(fine, static_cast<double>(fine.hits_detected)), "count", "count", route("detection")},
      {"detection.rocache_hit_ratio", detection.rocache_hit_ratio(), "share", "modeled", route("detection")},
      {"assemble.host_ms", host("assemble"), "ms", "host", route("assemble")},
      {"assemble.modeled_ms", modeled("assemble"), "ms", "modeled", route("assemble")},
      {"sort.host_ms", host("sort"), "ms", "host", route("sort")},
      {"sort.modeled_ms", modeled("sort"), "ms", "modeled", route("sort")},
      {"filter.host_ms", host("filter"), "ms", "host", route("filter")},
      {"filter.modeled_ms", modeled("filter"), "ms", "modeled", route("filter")},
      {"filter.survival", ratio(static_cast<double>(fine.hits_after_filter), static_cast<double>(fine.hits_detected)), "share", "count", route("filter")},
      {"extension.host_ms", host("extension"), "ms", "host", route("extension")},
      {"extension.modeled_ms", modeled("extension"), "ms", "modeled", route("extension")},
      {"extension.per_hit", ext_per_hit_ns, "ns", "host", route("extension")},
      {"extension.ld_efficiency", extension.global_load_efficiency(), "share", "modeled", route("extension")},
      {"extension.divergence", extension.divergence_overhead(), "share", "modeled", route("extension")},
      {"simt.host_per_modeled", ratio(sim_host, sim_modeled), "ratio", "host", "route kernels"},
      {"coarse.host_ms", host("coarse"), "ms", "host", route("coarse")},
      {"coarse.modeled_ms", modeled("coarse"), "ms", "modeled", route("coarse")},
      {"ladder.retries", retries, "count", "count", ""},
      {"ladder.degraded_blocks", degraded, "count", "count", ""},
      {"cpu_stage.host_ms", host("cpu_stage"), "ms", "host", ""},
      {"cpu_stage.gapped_extensions", per_query(L, static_cast<double>(L.gapped_extensions)), "count", "count", "per query"},
      {"cpu_stage.tracebacks", per_query(L, static_cast<double>(L.tracebacks)), "count", "count", "per query"},
      {"finalize.host_ms", host("finalize"), "ms", "host", ""},
      {"pipeline.modeled_overlapped_ms", mean(overlapped), "ms", "modeled", "per query"},
      {"fleet.shard_gpu_host_ms_max", per_query(L, L.shard_host_max_ms), "ms", "host", ""},
      {"fleet.dispatch_host_ms", host("dispatch"), "ms", "host", "fan-out to and join of the lanes"},
      {"fleet.shard_imbalance", ratio(L.shard_device_max_ms, L.shard_device_mean_ms), "ratio", "modeled", "max / mean shard kernel ms"},
      {"fleet.device_critical_ms", per_query(L, L.shard_device_max_ms), "ms", "modeled", ""},
      {"fleet.modeled_batch_ms", modeled_batch, "ms", "modeled", spec.shape == Shape::kFleetBatch ? "per batch" : "per query"},
      {"service.queue_wait_p50_ms", median(wait), "ms", "host", probe},
      {"service.queue_wait_tail_ms", tail_of(wait).value, "ms", "host", probe},
      {"service.run_ms_p50", median(run), "ms", "host", probe},
      {"service.rejected", rejected, "count", "count", probe},
      {"service.expired", expired, "count", "count", probe},
      {"service.retries", transient, "count", "count", probe},
      {"service.goodput_qps", good / service.schedule_s, "1/s", "host", probe},
      {"loadgen.lag_tail_ms", tail_of(lag).value, "ms", "host", probe},
      {"process.peak_rss_mb", peak_rss_mb(), "MB", "host", "whole traced run"},
      {"trace.overhead_ms", per_query(L, L.wall_ms - t.untraced_ms), "ms", "host", "traced minus untraced wall, per query"},
      {"trace.unattributed_share", ratio(L.unattributed_ms, L.wall_ms), "share", "host", "wall not covered by a layer span"},
  };
}

// --- runs --------------------------------------------------------------------

int selftest_oracle() {
  // Reduced-scale interactive inputs; the oracle must accept the engine's
  // alignments and reject every hand-altered copy of them.
  const WorkloadSpec spec = perfbench::workload_spec("interactive", 0.1);
  const Inputs inputs = perfbench::make_inputs(spec, 424242);
  const Oracle oracle(inputs, spec.config);
  core::SearchSession session(spec.config, inputs.db);
  int tripped = 0;
  int cases = 0;
  for (std::size_t q = 0; q < inputs.queries.size(); ++q) {
    const auto got = session.search(inputs.queries[q]).result.alignments;
    if (!oracle.matches(q, got)) {
      std::printf("selftest: engine disagrees with FSA-BLAST on query %zu\n", q);
      return 1;
    }
    std::vector<std::vector<blast::Alignment>> altered;
    if (!got.empty()) {
      auto a = got;
      a.front().score += 1;
      altered.push_back(a);
      a = got;
      a.back().ops.push_back('M');
      altered.push_back(a);
      a = got;
      a.pop_back();
      altered.push_back(a);
    }
    auto extra = got;
    extra.push_back(blast::Alignment{});
    altered.push_back(extra);
    for (const auto& a : altered) {
      ++cases;
      if (!oracle.matches(q, a)) ++tripped;
    }
  }
  std::printf("selftest: oracle tripped on %d of %d altered alignment lists\n",
              tripped, cases);
  return tripped == cases ? 0 : 1;
}

int run(const Options& opt) {
  const WorkloadSpec spec = perfbench::workload_spec(opt.workload, opt.scale);
  if ((spec.shape == Shape::kOpenLoop || opt.trace) && opt.service_rate_qps <= 0.0)
    throw std::invalid_argument(
        "service_openloop and every traced run need --service-rate-qps");

  // Set-up: input generation + session/service construction + the warm-up
  // query that makes the database resident. The system of the last set-up
  // is the one measured.
  std::vector<double> setups;
  Inputs inputs;
  System sys;
  auto set_up = [&] {
    sys = System{};
    const auto start = Clock::now();
    inputs = perfbench::make_inputs(spec, opt.seed);
    sys = build_system(spec, inputs);
    setups.push_back(ms_since(start, Clock::now()) / 1e3);
  };
  for (int i = 0; i < (opt.trace ? 1 : kSetupsBefore); ++i) set_up();
  const Oracle oracle(inputs, spec.config);

  std::printf("provenance: {\"nproc\": %u, \"cpu_model\": %s, \"build_type\": %s, "
              "\"compiler\": %s, \"git_sha\": %s, \"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %s, \"db_sequences\": %zu, "
              "\"db_residues\": %llu, \"query_lengths\": [",
              std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(__VERSION__).c_str(), json_string(PERFBENCH_GIT_SHA).c_str(),
              json_string(spec.name).c_str(), static_cast<unsigned long long>(opt.seed),
              json_number(opt.seconds).c_str(), opt.trace ? "true" : "false",
              inputs.db.size(),
              static_cast<unsigned long long>(inputs.db.total_residues()));
  for (std::size_t i = 0; i < inputs.queries.size(); ++i)
    std::printf("%s%zu", i ? ", " : "", inputs.queries[i].size());
  std::printf("], \"service_rate_qps\": %s, \"deadline_ms\": %s, \"config\": %s, "
              "\"service_config\": %s}\n",
              json_number(opt.service_rate_qps).c_str(),
              json_number(spec.deadline_ms).c_str(),
              config_json(core::normalized_config(spec.config)).c_str(),
              service_config_json(spec.service).c_str());

  Measured m;
  TraceRun t;
  std::optional<perfbench::TracedSearch> traced;
  if (opt.trace) {
    traced.emplace(spec.config, inputs.db);
    t.residency = traced->make_resident();
    perfbench::LayerLedger warm;
    for (const auto& q : inputs.queries) (void)traced->run(q, warm);
  }
  auto trace_query = [&](std::size_t q, double untraced_ms) {
    const auto got = traced->run(inputs.queries[q], t.ledger, &t.probe);
    if (!oracle.matches(q, got)) ++t.mismatches;
    t.untraced_ms += untraced_ms;
  };

  if (spec.shape == Shape::kOpenLoop) {
    open_loop(spec, sys, inputs, oracle, opt.service_rate_qps, opt.seconds,
              opt.seed, m);
    if (opt.trace) {
      // Each distinct query once, against its median untraced run time in
      // the service.
      for (std::size_t q = 0; q < inputs.queries.size(); ++q) {
        std::vector<double> runs;
        for (const Sample& s : m.samples)
          if (s.query == q && s.ok) runs.push_back(s.run_ms);
        trace_query(q, median(runs));
      }
    }
  } else {
    // One untimed round first, so that every query has run once and the
    // first measured round is as warm as the rest: on fleet_batch the first
    // batch ran 1.5-2x slower than later ones.
    {
      Measured warm;
      auto warm_done = Clock::now();
      closed_round(spec, sys, inputs, oracle, warm, warm_done);
    }
    // Whole rounds until the time is up. The traced searches between rounds
    // are not part of the load: the measured wall and the client's dispatch
    // gap both exclude them.
    const auto start = Clock::now();
    auto last_done = start;
    double measured_ms = 0.0;
    do {
      const std::size_t first = m.samples.size();
      const auto round_start = Clock::now();
      closed_round(spec, sys, inputs, oracle, m, last_done);
      measured_ms += ms_since(round_start, last_done);
      if (opt.trace) {
        for (std::size_t i = first; i < m.samples.size(); ++i)
          trace_query(m.samples[i].query, m.samples[i].run_ms);
        last_done = Clock::now();
      }
    } while (ms_since(start, Clock::now()) < opt.seconds * 1e3);
    m.wall_s = measured_ms / 1e3;
  }
  const Measured probe_run =
      opt.trace && spec.shape != Shape::kOpenLoop ? service_probe(opt) : Measured{};
  const Measured& service_run = spec.shape == Shape::kOpenLoop ? m : probe_run;

  if (!opt.trace)
    for (int i = 0; i < kSetupsAfter; ++i) set_up();

  const Totals totals = totals_of(m);
  bool correct = totals.wrong == 0 && m.errors == 0;
  if (opt.trace) {
    const double unattributed = t.ledger.wall_ms > 0.0
                                    ? t.ledger.unattributed_ms / t.ledger.wall_ms
                                    : 1.0;
    std::printf("trace: %zu traced queries, %zu alignment mismatches, "
                "unattributed %.4f of traced wall (tolerance %.2f)\n",
                t.ledger.queries, t.mismatches, unattributed, kReconcileTolerance);
    const Totals probe = totals_of(service_run);
    if (&service_run != &m)
      std::printf("service probe: %zu requests, %zu wrong, %zu errors\n",
                  probe.attempted, probe.wrong, service_run.errors);
    if (probe.wrong != 0 || service_run.errors != 0) correct = false;
    if (t.mismatches != 0 || unattributed > kReconcileTolerance) correct = false;
    print_result(correct, totals.attempted, totals.failed,
                 per_layer(spec, m, service_run, t));
  } else {
    print_result(correct, totals.attempted, totals.failed,
                 end_to_end(m, median(setups)));
  }
  if (totals.wrong != 0)
    std::fprintf(stderr, "perfbench: %zu searches disagree with FSA-BLAST\n",
                 totals.wrong);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Pin glibc's allocation policy. Left dynamic, the mmap threshold moves
  // with the order in which threads free large buffers (the per-query bin
  // grids, ~17 MB each), which made whole processes fast or slow: warm-up
  // searches varied 2x from process to process. Pinned, buffers up to
  // 32 MiB come from the heap and freed ones stay there for reuse, in
  // every run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  try {
    const Options opt = parse(argc, argv);
    return opt.selftest_oracle ? selftest_oracle() : run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
