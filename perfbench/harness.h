// Measurement plumbing shared by the benchmark workloads: clocks,
// percentiles, a span log fed by a timing decorator around the repair
// backends, result checksums, and the metric record every run prints.
//
// Everything here observes the library from outside, through its public
// API: the decorator wraps `repair::RepairAlgorithm`, the workloads time
// their own calls into `Engine` and `ExplainService`, and the counters
// come from the public stats structs. Nothing here reaches into src/.

#ifndef TREX_PERFBENCH_HARNESS_H_
#define TREX_PERFBENCH_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "repair/algorithm.h"
#include "serving/service.h"

namespace trex::perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two instants.
double Seconds(Clock::time_point from, Clock::time_point to);
/// Seconds since `from`.
double SecondsSince(Clock::time_point from);

/// Quantile `q` in [0, 1] of `values`, linear between order statistics
/// (the "inclusive" method of Python's statistics.quantiles). 0 for an
/// empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// splitmix64 over `seed ^ salt`: independent, reproducible sub-seeds.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t salt);

/// The four registered backends, in the order the metrics name them.
inline constexpr const char* kBackendNames[] = {"fd_repair", "rule_repair",
                                                "holistic", "holoclean"};
inline constexpr std::size_t kNumBackends = 4;
/// The registered algorithm for `kBackendNames[index]`.
std::shared_ptr<const repair::RepairAlgorithm> MakeBackend(std::size_t index);

/// One timed repair call.
struct Span {
  Clock::time_point start;
  Clock::time_point end;
  std::size_t backend = 0;
};

/// Thread-safe, append-only record of repair calls (sweep shards call the
/// backend concurrently).
class SpanLog {
 public:
  void Add(const Span& span);
  /// Every span recorded so far, ordered by start time.
  std::vector<Span> Sorted() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Pass-through repairer that records the wall time of every `Repair`
/// call into a `SpanLog`. It forwards `name()` — the router's engine key,
/// so a traced run routes exactly like an untraced one — and
/// `InfluenceGraph()`, without which `kCells` would prune players with
/// the conservative DC graph and compute different values.
class TimedAlgorithm final : public repair::RepairAlgorithm {
 public:
  TimedAlgorithm(std::shared_ptr<const repair::RepairAlgorithm> inner,
                 std::size_t backend, SpanLog* log);

  std::string name() const override;
  Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override;
  std::optional<dc::AttributeGraph> InfluenceGraph(
      const dc::DcSet& dcs, const Schema& schema) const override;

 private:
  std::shared_ptr<const repair::RepairAlgorithm> inner_;
  std::size_t backend_;
  SpanLog* log_;
};

/// The backend itself, or — when `log` is set — the backend behind a
/// `TimedAlgorithm` feeding `log`. Fails the run if the decorator does
/// not forward the routing name or the influence graph unchanged.
std::shared_ptr<const repair::RepairAlgorithm> Instrument(
    std::shared_ptr<const repair::RepairAlgorithm> algorithm,
    std::size_t backend, SpanLog* log, const dc::DcSet& dcs,
    const Schema& schema);

/// Checksum of one answer: the status code, and for an explanation the
/// ranked labels plus the bit patterns of every Shapley value and
/// standard error. Cost counters are excluded — they legitimately differ
/// between a cold and a warm engine.
std::uint64_t Checksum(const Result<ExplainResult>& result);

/// Resolve instants of a run's tickets, stamped by the service's
/// `on_complete` callbacks (the moment the caller is told).
class CompletionBoard {
 public:
  /// Opens a slot and returns the callback that stamps it.
  std::pair<std::size_t, std::function<void(const Result<ExplainResult>&)>>
  Open();
  /// Blocks until `slot` is stamped and returns its instant.
  Clock::time_point Wait(std::size_t slot);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::optional<Clock::time_point>> at_;
  std::size_t stamped_ = 0;
};

/// Direct synchronous `Engine` calls: the `core` layer's measurements.
struct CoreLog {
  /// Times `engine.EnsureRepair()`; false (and a note on stderr) on error.
  bool EnsureRepair(Engine& engine);
  /// Times one `engine.Explain(request)` and returns the answer's checksum.
  std::uint64_t Explain(Engine& engine, const ExplainRequest& request,
                        std::size_t backend);
  /// Samples the engine's memo footprint; call when done with an engine.
  void EngineDone(const Engine& engine);

  std::vector<double> explain_ms;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
  double explain_s[kNumBackends] = {};
  std::size_t evals = 0;
  std::size_t hits = 0;
  std::size_t cross_request_hits = 0;
  std::size_t sweeps = 0;
  std::size_t failed = 0;
  double memo_bytes_max = 0.0;
  std::vector<double> reference_ms;
  /// Players (ranked cells) per kCells answer.
  std::vector<double> cell_players;
};

/// The reference pass: every request the service answered, asked again
/// through direct synchronous `Engine::Explain` calls, keyed like the
/// service's tickets.
struct DirectPass {
  CoreLog core;
  std::map<std::uint64_t, std::uint64_t> checksums;
  std::map<std::uint64_t, double> explain_ms;
  double wall_s = 0.0;

  void Explain(Engine& engine, const ExplainRequest& request,
               std::size_t backend, std::uint64_t key);
};

/// One answered ticket of the service phase.
struct TicketRecord {
  std::uint64_t key = 0;
  std::uint64_t checksum = 0;
  bool ok = false;
  double submit_us = 0.0;
  double latency_ms = 0.0;
};

/// The end-to-end metrics, in the order BENCHMARK.json lists them.
struct EndToEnd {
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double throughput_rps = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports; `main` prints it as the final JSON line.
struct RunOutput {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit);
  /// Records a correctness failure with a reason on stderr.
  void Fail(const std::string& reason);
};

struct RunConfig {
  std::uint64_t seed = 0;
  double seconds = 30.0;
  bool trace = false;
};

/// Median of `repeats` timed calls of `setup`, in seconds. Every call must
/// build the same inputs; the last call's result is the one kept.
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

/// Folds one service's stats into a run total: counters add up, the queue
/// high-water mark is the largest seen.
void AddStats(serving::ServiceStats* total, const serving::ServiceStats& one);

/// The correctness gate: counts every ticket into `attempted`, and every
/// non-OK ticket or answer that differs from the direct reference into
/// `failed`; either also clears `correct`, since no request of these
/// workloads may fail.
void Gate(const std::vector<TicketRecord>& tickets, const DirectPass& direct,
          RunOutput* out);

/// Adds the end-to-end metrics to `out`, named as in BENCHMARK.json.
void ReportEndToEnd(const EndToEnd& e2e, RunOutput* out);

/// The per-layer metrics of a traced run: `repair` from the service
/// phase's spans, `core` from the traced direct pass, `serving`/`router`
/// from the service's stats and tickets, and the tracing overhead from the
/// two direct passes. Also fails the run when the traced and untraced
/// direct answers differ. Metrics of a layer a workload does not exercise
/// read 0.
void ReportLayers(const std::vector<TicketRecord>& tickets,
                  const serving::ServiceStats& stats, double service_wall_s,
                  const SpanLog& service_spans, const DirectPass& untraced,
                  const DirectPass& traced, const SpanLog& direct_spans,
                  RunOutput* out);

RunOutput RunInteractiveSession(const RunConfig& config);
RunOutput RunBackendAudit(const RunConfig& config);
/// Recomputes audit_pins.inc: prints one pin line per world and backend.
void PrintAuditPins();

}  // namespace trex::perfbench

#endif  // TREX_PERFBENCH_HARNESS_H_
