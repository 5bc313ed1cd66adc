// simtprof observability tests (DESIGN.md §16): the continuous profiler's
// phase aggregation and versioned JSON export, the per-query flight
// recorder's bounded ring and tail-based retention, the service's live
// introspection surfaces (/statusz snapshot, JSONL event log), and the
// histogram quantile estimator those surfaces report.
//
// Like trace_test.cpp, every writer is validated with a strict
// recursive-descent JSON parser defined here, so a sloppy emitter cannot
// self-certify.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bio/generator.hpp"
#include "core/errors.hpp"
#include "core/search_session.hpp"
#include "core/service.hpp"
#include "simt/metrics.hpp"
#include "simt/simtprof.hpp"
#include "util/flight_recorder.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "stats_equal.hpp"

namespace repro {
namespace {

// ---------------------------------------------------------------------------
// Strict JSON parser (validation only; throws std::runtime_error).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end())
      throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return object.count(key) != 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      if (v.object.count(key.string) != 0)
        fail("duplicate key: " + key.string);
      skip_ws();
      expect(':');
      v.object.emplace(key.string, value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') { v.string += c; continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.string += '"'; break;
        case '\\': v.string += '\\'; break;
        case '/': v.string += '/'; break;
        case 'b': v.string += '\b'; break;
        case 'f': v.string += '\f'; break;
        case 'n': v.string += '\n'; break;
        case 'r': v.string += '\r'; break;
        case 't': v.string += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            if (!std::isxdigit(static_cast<unsigned char>(h)))
              fail("bad \\u escape");
          }
          pos_ += 4;
          v.string += '?';
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        fail("bad fraction");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        fail("bad exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(
        std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

std::string read_file(const std::string& path) {
  std::stringstream ss;
  ss << std::ifstream(path).rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Workload helpers (same shape as service_test.cpp).
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<std::vector<std::uint8_t>> queries;
  bio::SequenceDatabase db;
};

Workload make_workload(std::size_t num_queries = 1,
                       std::size_t num_seqs = 40) {
  Workload w;
  for (std::size_t i = 0; i < num_queries; ++i)
    w.queries.push_back(
        bio::make_benchmark_query(97 + 40 * i, 300 + i).residues);
  auto profile = bio::DatabaseProfile::swissprot_like(num_seqs);
  profile.homolog_fraction = 0.08;
  bio::DatabaseGenerator gen(profile, 23);
  w.db = gen.generate(w.queries.front());
  return w;
}

core::Config base_config() {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;
  config.bin_capacity = 64;
  return config;
}

std::filesystem::path test_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Continuous profiler.
// ---------------------------------------------------------------------------

TEST(SimtProf, PhaseMappingCoversThePipelineAndCatchesStrays) {
  using simt::prof::phase_for_kernel;
  EXPECT_STREQ(phase_for_kernel("hit_detection"), "hit_detection");
  EXPECT_STREQ(phase_for_kernel("bin_scan"), "sorting");
  EXPECT_STREQ(phase_for_kernel("hit_sort"), "sorting");
  EXPECT_STREQ(phase_for_kernel("hit_filter"), "filtering");
  EXPECT_STREQ(phase_for_kernel("ungapped_extension"), "extension");
  EXPECT_STREQ(phase_for_kernel("gapped_extension_gpu"), "gapped");
  EXPECT_STREQ(phase_for_kernel("h2d_query"), "h2d");
  EXPECT_STREQ(phase_for_kernel("d2h_extensions"), "d2h");
  // Unknown labels must land in "other", not vanish — that is what keeps
  // the phase totals summing exactly to the registry total.
  EXPECT_STREQ(phase_for_kernel("some_future_kernel"), "other");
}

TEST(SimtProf, ProfileJsonIsValidAndPhasesReconcileWithTotal) {
  const auto w = make_workload(2);
  core::SearchSession session(base_config(), w.db);
  (void)session.search(w.queries[0]);
  (void)session.search(w.queries[1]);

  const auto& prof = session.profiler();
  EXPECT_EQ(prof.searches(), 2u);

  const JsonValue root = parse_json(prof.to_json());
  EXPECT_EQ(root.at("schema").string, "cublastp.profile.v1");
  EXPECT_EQ(root.at("searches").number, 2.0);
  EXPECT_GT(root.at("device").at("num_sms").number, 0.0);
  EXPECT_GT(root.at("measured").at("host_wall_ms_total").number, 0.0);

  const double total = root.at("modeled_total_ms").number;
  EXPECT_GT(total, 0.0);
  const JsonValue& phases = root.at("phases");
  ASSERT_EQ(phases.kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(phases.array.empty());
  double phase_sum = 0.0;
  double share_sum = 0.0;
  double last_ms = std::numeric_limits<double>::infinity();
  for (const JsonValue& p : phases.array) {
    const double ms = p.at("modeled_ms").number;
    phase_sum += ms;
    share_sum += p.at("share").number;
    // Ordered hottest-first.
    EXPECT_LE(ms, last_ms) << p.at("phase").string;
    last_ms = ms;
    ASSERT_FALSE(p.at("kernels").array.empty()) << p.at("phase").string;
  }
  // The acceptance invariant: phase totals reconcile with the engine
  // total to within 1% (they should in fact match to rounding).
  EXPECT_NEAR(phase_sum, total, total * 0.01);
  EXPECT_NEAR(share_sum, 1.0, 0.01);

  // The embeddable summary agrees with the full export.
  const JsonValue summary = parse_json(prof.summary_json());
  EXPECT_EQ(summary.at("searches").number, 2.0);
  EXPECT_EQ(summary.at("top_phase").string,
            phases.array.front().at("phase").string);

  // The Fig. 19-style table renders with the aggregate header.
  EXPECT_NE(prof.to_table().find("simtprof hotspots (2 searches)"),
            std::string::npos);
}

TEST(SimtProf, WriteFileRejectsUnknownExtensionLoudly) {
  const auto w = make_workload();
  core::SearchSession session(base_config(), w.db);
  (void)session.search(w.queries[0]);

  const auto dir = test_dir("simtprof_write");
  const auto good = (dir / "profile.json").string();
  ASSERT_TRUE(session.profiler().write_file(good));
  parse_json(read_file(good));  // throws if not valid JSON

  EXPECT_THROW((void)session.profiler().write_file((dir / "p.csv").string()),
               std::invalid_argument);
}

TEST(SimtProf, ProfilePathExportsOnSearchAndBadExtensionIsSearchError) {
  const auto w = make_workload();
  const auto dir = test_dir("simtprof_export");

  auto config = base_config();
  config.profile_path = (dir / "session_profile.json").string();
  {
    core::SearchSession session(config, w.db);
    (void)session.search(w.queries[0]);
  }
  const JsonValue root =
      parse_json(read_file(config.profile_path));
  EXPECT_EQ(root.at("schema").string, "cublastp.profile.v1");
  EXPECT_EQ(root.at("searches").number, 1.0);

  // A typo'd extension surfaces through the core error taxonomy, not as
  // a silently guessed format.
  auto bad = base_config();
  bad.profile_path = (dir / "profile.txt").string();
  core::SearchSession broken(bad, w.db);
  try {
    (void)broken.search(w.queries[0]);
    FAIL() << "expected SearchError for bad profile extension";
  } catch (const core::SearchError& e) {
    EXPECT_EQ(e.code(), core::SearchErrorCode::kInvalidArgument);
  }
}

TEST(SimtProf, ResultsBitIdenticalWithProfilingExportOnVsOff) {
  const auto w = make_workload();
  core::SearchSession plain(base_config(), w.db);
  const auto expected = plain.search(w.queries[0]);

  const auto dir = test_dir("simtprof_identical");
  auto config = base_config();
  config.profile_path = (dir / "profile.json").string();
  core::SearchSession profiled(config, w.db);
  const auto got = profiled.search(w.queries[0]);

  EXPECT_EQ(got.result.alignments, expected.result.alignments);
  EXPECT_EQ(got.result.counters.words_scanned,
            expected.result.counters.words_scanned);
  EXPECT_EQ(got.result.counters.hits_detected,
            expected.result.counters.hits_detected);
  EXPECT_EQ(got.result.counters.ungapped_extensions,
            expected.result.counters.ungapped_extensions);
  EXPECT_EQ(got.result.counters.gapped_extensions,
            expected.result.counters.gapped_extensions);
  EXPECT_EQ(got.result.counters.tracebacks,
            expected.result.counters.tracebacks);
}

TEST(SimtProf, DeterministicAcrossRepeatsAndWorkerCounts) {
  // The profiler's aggregate derives from KernelStats counters only, so
  // the address-independent subset must be identical across repeats and
  // engine worker counts under the virtual clock.
  const auto w = make_workload();
  util::VirtualClockScope vclock;

  struct Snapshot {
    std::vector<std::string> phase_names;
    std::vector<simt::KernelStats> stats;
  };
  auto run = [&](int workers) {
    auto config = base_config();
    config.engine_workers = workers;
    core::SearchSession session(config, w.db);
    (void)session.search(w.queries[0]);
    Snapshot s;
    for (const auto& p : session.profiler().phases()) {
      s.phase_names.push_back(p.phase);
      s.stats.push_back(p.stats);
    }
    return s;
  };

  const Snapshot first = run(1);
  ASSERT_FALSE(first.phase_names.empty());
  for (const int workers : {1, 4}) {
    const Snapshot repeat = run(workers);
    ASSERT_EQ(repeat.phase_names.size(), first.phase_names.size())
        << workers << " workers";
    for (std::size_t i = 0; i < first.phase_names.size(); ++i) {
      EXPECT_EQ(repeat.phase_names[i], first.phase_names[i]);
      expect_stats_equal(repeat.stats[i], first.stats[i],
                         first.phase_names[i] + " @ " +
                             std::to_string(workers) + " workers");
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram quantiles (the estimator /statusz and the exporters report).
// ---------------------------------------------------------------------------

TEST(MetricsQuantiles, EstimatorIsMonotoneAndBracketsTheData) {
  auto& h = util::metrics::Registry::instance().histogram(
      "test.simtprof.quantiles");
  h.reset();
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-3);  // 1ms .. 1s

  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Bucket interpolation is coarse; bracket loosely around the truth.
  EXPECT_GT(p50, 0.1);
  EXPECT_LT(p50, 1.0);
  EXPECT_GT(p99, p50);
  EXPECT_LE(p99, 2.0);
}

TEST(MetricsQuantiles, ExportersCarryTheQuantiles) {
  auto& registry = util::metrics::Registry::instance();
  auto& h = registry.histogram("test.simtprof.export_quantiles");
  h.reset();
  for (int i = 0; i < 100; ++i) h.observe(0.25);

  const JsonValue root = parse_json(registry.to_json());
  const JsonValue& hist =
      root.at("histograms").at("test.simtprof.export_quantiles");
  const JsonValue& q = hist.at("quantiles");
  EXPECT_GT(q.at("p50").number, 0.0);
  EXPECT_GE(q.at("p95").number, q.at("p50").number);
  EXPECT_GE(q.at("p99").number, q.at("p95").number);

  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("_approx_quantile{quantile=\"0.5\"}"),
            std::string::npos)
      << prom.substr(0, 400);
}

TEST(MetricsQuantiles, WriteFileUnknownExtensionThrows) {
  const auto dir = test_dir("metrics_ext");
  auto& registry = util::metrics::Registry::instance();
  registry.counter("test.simtprof.ext").add(1);
  EXPECT_THROW((void)registry.write_file((dir / "metrics.csv").string()),
               std::invalid_argument);
  EXPECT_THROW((void)registry.write_file((dir / "metrics").string()),
               std::invalid_argument);
  ASSERT_TRUE(registry.write_file((dir / "metrics.json").string()));
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingIsBoundedAndCountsEvictions) {
  auto& recorder = util::FlightRecorder::instance();
  recorder.reset();
  recorder.configure(4);
  recorder.begin_query(42);
  EXPECT_TRUE(recorder.active());

  // The flight gate alone (no trace session) must make spans record.
  EXPECT_TRUE(util::trace_enabled());
  for (int i = 0; i < 20; ++i)
    util::TraceSpan span("flight_test_span", "test");
  recorder.end_query();

  EXPECT_LE(recorder.event_count(), 4u);
  EXPECT_GE(recorder.dropped(), 16u);

  const JsonValue root = parse_json(recorder.dump_json(
      {util::targ("reason", "test")}));
  const JsonValue& other = root.at("otherData");
  EXPECT_EQ(other.at("query_id").number, 42.0);
  EXPECT_EQ(other.at("reason").string, "test");
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").string == "X") {
      EXPECT_EQ(e.at("name").string, "flight_test_span");
    }
  }

  recorder.reset();
  recorder.configure(4096);  // restore the default for later tests
  EXPECT_FALSE(util::trace_enabled());
}

TEST(FlightRecorder, ServiceDumpsTailOnlyForSlowOrFailedQueries) {
  const auto w = make_workload();
  const auto dir = test_dir("flight_tail");

  core::ServiceConfig service_config;
  service_config.flight_dir = (dir / "flights").string();
  service_config.slo_ms = 1e9;  // generous: an ok query is never slow
  {
    core::SearchService service(base_config(), w.db, service_config);

    // Query 1: completes ok, well under the SLO — must NOT dump.
    const auto ok = service.search(w.queries[0]);
    ASSERT_EQ(ok.status, core::RequestStatus::kOk);

    // Query 2: a 1 us deadline always expires — must dump.
    const auto late = service.search(w.queries[0], /*deadline_ms=*/0.001);
    ASSERT_EQ(late.status, core::RequestStatus::kDeadlineExceeded);
  }

  std::vector<std::string> dumps;
  for (const auto& entry :
       std::filesystem::directory_iterator(service_config.flight_dir))
    dumps.push_back(entry.path().filename().string());
  ASSERT_EQ(dumps.size(), 1u) << "tail-based retention must keep exactly "
                                 "the deadline-exceeded query";
  EXPECT_NE(dumps[0].find("deadline_exceeded"), std::string::npos)
      << dumps[0];

  const JsonValue root = parse_json(
      read_file((std::filesystem::path(service_config.flight_dir) /
                 dumps[0]).string()));
  EXPECT_EQ(root.at("otherData").at("status").string, "deadline_exceeded");
}

TEST(FlightRecorder, SloViolationDumpsAnOkQuery) {
  const auto w = make_workload();
  const auto dir = test_dir("flight_slo");

  core::ServiceConfig service_config;
  service_config.flight_dir = (dir / "flights").string();
  service_config.slo_ms = 1e-6;  // everything is an SLO violation
  std::uint64_t dumps_counted = 0;
  {
    core::SearchService service(base_config(), w.db, service_config);
    const auto ok = service.search(w.queries[0]);
    ASSERT_EQ(ok.status, core::RequestStatus::kOk);
    const auto status = service.status_snapshot();
    EXPECT_EQ(status.slo_violations, 1u);
    EXPECT_EQ(status.slo_ok, 0u);
    dumps_counted = status.flight_dumps;
  }
  EXPECT_EQ(dumps_counted, 1u);

  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(service_config.flight_dir)) {
    ++files;
    const JsonValue root = parse_json(read_file(entry.path().string()));
    EXPECT_EQ(root.at("otherData").at("status").string, "ok");
    EXPECT_EQ(root.at("otherData").at("slo_miss").number, 1.0);
    // The ring captured real pipeline spans, not an empty shell.
    EXPECT_FALSE(root.at("traceEvents").array.empty());
  }
  EXPECT_EQ(files, 1u);
}

TEST(FlightRecorder, CancelledQueryDumpsItsFlightRecord) {
  const auto w = make_workload();
  const auto dir = test_dir("flight_cancel");

  core::ServiceConfig service_config;
  service_config.flight_dir = (dir / "flights").string();
  {
    core::SearchService service(base_config(), w.db, service_config);
    core::CancellationSource source;
    source.cancel();  // pre-cancelled: resolves without running
    core::SearchRequest request;
    request.query = w.queries[0];
    request.cancel = source.token();
    const auto result = service.submit(std::move(request)).get();
    ASSERT_EQ(result.status, core::RequestStatus::kCancelled);
  }

  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(service_config.flight_dir)) {
    ++files;
    EXPECT_NE(entry.path().filename().string().find("cancelled"),
              std::string::npos);
    const JsonValue root = parse_json(read_file(entry.path().string()));
    EXPECT_EQ(root.at("otherData").at("status").string, "cancelled");
  }
  EXPECT_EQ(files, 1u);
}

TEST(FlightRecorder, DegradedQueryDumpsItsFlightRecord) {
  const auto w = make_workload();
  const auto dir = test_dir("flight_degraded");

  core::ServiceConfig service_config;
  service_config.flight_dir = (dir / "flights").string();
  auto config = base_config();
  config.fault_schedule = "simt.launch:every=1";  // ladder absorbs, degrades
  {
    core::SearchService service(config, w.db, service_config);
    const auto result = service.search(w.queries[0]);
    ASSERT_EQ(result.status, core::RequestStatus::kDegraded);
    EXPECT_FALSE(result.report.result.alignments.empty());
  }

  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(service_config.flight_dir)) {
    ++files;
    const JsonValue root = parse_json(read_file(entry.path().string()));
    EXPECT_EQ(root.at("otherData").at("status").string, "degraded");
    EXPECT_FALSE(root.at("traceEvents").array.empty());
  }
  EXPECT_EQ(files, 1u);
}

TEST(FlightRecorder, ResultsBitIdenticalWithFlightRecordingOnVsOff) {
  const auto w = make_workload();
  core::SearchService plain(base_config(), w.db);
  const auto expected = plain.search(w.queries[0]);

  const auto dir = test_dir("flight_identical");
  core::ServiceConfig service_config;
  service_config.flight_dir = (dir / "flights").string();
  service_config.slo_ms = 1e-6;  // force a dump, maximum interference
  core::SearchService recorded(base_config(), w.db, service_config);
  const auto got = recorded.search(w.queries[0]);

  ASSERT_EQ(got.status, core::RequestStatus::kOk);
  EXPECT_EQ(got.report.result.alignments, expected.report.result.alignments);
  EXPECT_EQ(got.report.result.counters.hits_detected,
            expected.report.result.counters.hits_detected);
  EXPECT_EQ(got.report.result.counters.gapped_extensions,
            expected.report.result.counters.gapped_extensions);
}

// ---------------------------------------------------------------------------
// Live introspection: status snapshot, statusz file, JSONL event log.
// ---------------------------------------------------------------------------

TEST(ServiceIntrospection, StatusSnapshotJsonIsValidAndComplete) {
  const auto w = make_workload();
  core::ServiceConfig service_config;
  service_config.slo_ms = 1e9;
  core::SearchService service(base_config(), w.db, service_config);
  const auto ok = service.search(w.queries[0]);
  ASSERT_EQ(ok.status, core::RequestStatus::kOk);

  const auto status = service.status_snapshot();
  EXPECT_TRUE(status.accepting);
  EXPECT_FALSE(status.busy);
  EXPECT_EQ(status.stats.submitted, 1u);
  EXPECT_EQ(status.stats.completed, 1u);
  EXPECT_EQ(status.queue_depth, 0u);
  EXPECT_EQ(status.slo_ok, 1u);
  EXPECT_GT(status.wall_p50_s, 0.0);

  const JsonValue root = parse_json(status.to_json());
  EXPECT_EQ(root.at("schema").string, "cublastp.statusz.v1");
  EXPECT_GE(root.at("uptime_ms").number, 0.0);
  EXPECT_EQ(root.at("accepting").boolean, true);
  EXPECT_EQ(root.at("queues").at("total").number, 0.0);
  EXPECT_EQ(root.at("stats").at("submitted").number, 1.0);
  EXPECT_EQ(root.at("in_flight").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(root.at("slo").at("objective_ms").number, 1e9);
  EXPECT_EQ(root.at("slo").at("ok").number, 1.0);
  EXPECT_GT(root.at("latency_quantiles_s").at("p50").number, 0.0);
  // The embedded profiler summary reflects the completed search.
  EXPECT_EQ(root.at("profile").at("searches").number, 1.0);
  EXPECT_FALSE(root.at("profile").at("top_phase").string.empty());
}

TEST(ServiceIntrospection, StatuszFileIsWrittenAndRewritten) {
  const auto w = make_workload();
  const auto dir = test_dir("statusz");
  core::ServiceConfig service_config;
  service_config.statusz_path = (dir / "statusz.json").string();
  service_config.statusz_period_ms = 10.0;
  {
    core::SearchService service(base_config(), w.db, service_config);
    (void)service.search(w.queries[0]);
    // The periodic thread writes immediately at start; give it a beat to
    // observe the completed search, then check the drain-time rewrite
    // below for the final counters.
  }
  const JsonValue root =
      parse_json(read_file(service_config.statusz_path));
  EXPECT_EQ(root.at("schema").string, "cublastp.statusz.v1");
  // Drain rewrites the file one final time, so it must show the search.
  EXPECT_EQ(root.at("stats").at("submitted").number, 1.0);
  EXPECT_EQ(root.at("stats").at("completed").number, 1.0);
}

TEST(ServiceIntrospection, EventLogRecordsTheRequestLifecycle) {
  const auto w = make_workload();
  const auto dir = test_dir("eventlog");
  core::ServiceConfig service_config;
  service_config.event_log_path = (dir / "events.jsonl").string();
  {
    core::SearchService service(base_config(), w.db, service_config);
    (void)service.search(w.queries[0]);
  }

  std::ifstream in(service_config.event_log_path);
  ASSERT_TRUE(in.is_open());
  std::set<std::string> events;
  std::string line;
  std::uint64_t expected_seq = 0;
  while (std::getline(in, line)) {
    const JsonValue root = parse_json(line);  // every line parses alone
    events.insert(root.at("event").string);
    EXPECT_EQ(root.at("seq").number, static_cast<double>(expected_seq++));
  }
  for (const char* name : {"service.start", "service.admit",
                           "service.dispatch", "service.complete",
                           "service.drain"})
    EXPECT_TRUE(events.count(name) != 0) << "missing event: " << name;
  EXPECT_EQ(events.count("service.reject"), 0u);
  EXPECT_EQ(events.count("service.flight_dump"), 0u);
}

}  // namespace
}  // namespace repro
