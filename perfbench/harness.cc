#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "repair/fd_repair.h"
#include "repair/holistic.h"
#include "repair/holoclean.h"
#include "repair/soccer_algorithm1.h"

namespace trex::perfbench {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return Seconds(from, Clock::now());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::shared_ptr<const repair::RepairAlgorithm> MakeBackend(std::size_t index) {
  switch (index) {
    case 0:
      return std::make_shared<repair::FdRepair>();
    case 1:
      return repair::MakeAlgorithm1();
    case 2:
      return std::make_shared<repair::HolisticRepair>();
    default:
      return std::make_shared<repair::HoloCleanRepair>();
  }
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Sorted() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  return spans;
}

TimedAlgorithm::TimedAlgorithm(
    std::shared_ptr<const repair::RepairAlgorithm> inner, std::size_t backend,
    SpanLog* log)
    : inner_(std::move(inner)), backend_(backend), log_(log) {}

std::string TimedAlgorithm::name() const { return inner_->name(); }

Result<Table> TimedAlgorithm::Repair(const dc::DcSet& dcs,
                                     const Table& dirty) const {
  const Clock::time_point start = Clock::now();
  Result<Table> repaired = inner_->Repair(dcs, dirty);
  log_->Add(Span{start, Clock::now(), backend_});
  return repaired;
}

std::optional<dc::AttributeGraph> TimedAlgorithm::InfluenceGraph(
    const dc::DcSet& dcs, const Schema& schema) const {
  return inner_->InfluenceGraph(dcs, schema);
}

namespace {

bool SameInfluence(const std::optional<dc::AttributeGraph>& a,
                   const std::optional<dc::AttributeGraph>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  if (a->num_columns() != b->num_columns()) return false;
  for (std::size_t col = 0; col < a->num_columns(); ++col) {
    if (a->InfluencingColumns(col) != b->InfluencingColumns(col)) return false;
  }
  return true;
}

}  // namespace

std::shared_ptr<const repair::RepairAlgorithm> Instrument(
    std::shared_ptr<const repair::RepairAlgorithm> algorithm,
    std::size_t backend, SpanLog* log, const dc::DcSet& dcs,
    const Schema& schema) {
  if (log == nullptr) return algorithm;
  auto timed = std::make_shared<TimedAlgorithm>(algorithm, backend, log);
  if (timed->name() != algorithm->name() ||
      !SameInfluence(timed->InfluenceGraph(dcs, schema),
                     algorithm->InfluenceGraph(dcs, schema))) {
    std::fprintf(stderr,
                 "timing decorator changes the routing name or the influence "
                 "graph of %s\n",
                 algorithm->name().c_str());
    std::exit(3);
  }
  return timed;
}

namespace {

std::uint64_t MixDouble(std::uint64_t h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fnv1aBytes(&bits, sizeof(bits), h);
}

std::uint64_t MixSize(std::uint64_t h, std::size_t value) {
  const std::uint64_t wide = value;
  return Fnv1aBytes(&wide, sizeof(wide), h);
}

}  // namespace

std::uint64_t Checksum(const Result<ExplainResult>& result) {
  std::uint64_t h = Fnv1a("trex-result");
  if (!result.ok()) {
    return MixSize(h, static_cast<std::size_t>(result.status().code()) + 1);
  }
  h = MixSize(h, static_cast<std::size_t>(result->kind));
  h = MixSize(h, result->target.row);
  h = MixSize(h, result->target.col);
  if (result->explanation.has_value()) {
    for (const PlayerScore& player : result->explanation->ranked) {
      h = MixSize(h, player.label.size());
      h = Fnv1a(player.label, h);
      h = MixDouble(h, player.shapley);
      h = MixDouble(h, player.std_error);
    }
  }
  return h;
}

std::pair<std::size_t, std::function<void(const Result<ExplainResult>&)>>
CompletionBoard::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t slot = at_.size();
  at_.emplace_back();
  return {slot, [this, slot](const Result<ExplainResult>&) {
            const Clock::time_point now = Clock::now();
            {
              std::lock_guard<std::mutex> inner(mu_);
              at_[slot] = now;
              ++stamped_;
            }
            cv_.notify_all();
          }};
}

Clock::time_point CompletionBoard::Wait(std::size_t slot) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return at_[slot].has_value(); });
  return *at_[slot];
}


namespace {

/// The repair layer over a set of spans: calls and busy time per answered
/// request (runs are time-bounded, so totals would grow with speed), call
/// percentiles, and mean calls in flight over the window.
struct RepairLayer {
  double calls = 0.0;
  double busy_s = 0.0;
  double call_us_p50 = 0.0;
  double call_us_p90 = 0.0;
  double inflight_mean = 0.0;
  double call_ms_p50[kNumBackends] = {};
};

RepairLayer SummarizeRepairs(const std::vector<Span>& spans, double wall_s,
                             std::size_t answered) {
  RepairLayer layer;
  std::vector<double> call_us;
  std::vector<double> per_backend_ms[kNumBackends];
  for (const Span& span : spans) {
    const double s = Seconds(span.start, span.end);
    layer.busy_s += s;
    call_us.push_back(s * 1e6);
    per_backend_ms[span.backend].push_back(s * 1e3);
  }
  layer.call_us_p50 = Quantile(call_us, 0.5);
  layer.call_us_p90 = Quantile(call_us, 0.9);
  layer.inflight_mean = wall_s > 0 ? layer.busy_s / wall_s : 0.0;
  const double requests = static_cast<double>(std::max<std::size_t>(answered, 1));
  layer.calls = static_cast<double>(spans.size()) / requests;
  layer.busy_s /= requests;
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    layer.call_ms_p50[b] = Median(per_backend_ms[b]);
  }
  return layer;
}

/// Per explain interval, its duration minus the union of the repair spans
/// it covers, in ms. `intervals` must not overlap; `spans` sorted by start.
std::vector<double> SelfTimesMs(
    const std::vector<std::pair<Clock::time_point, Clock::time_point>>&
        intervals,
    const std::vector<Span>& spans) {
  std::vector<double> self_ms;
  std::size_t first = 0;
  for (const auto& [begin, end] : intervals) {
    while (first < spans.size() && spans[first].start < begin) ++first;
    // Union of the covered spans, clipped to the interval: spans are
    // ordered by start, so one pass merges overlapping ones.
    double covered = 0.0;
    Clock::time_point run_start{};
    Clock::time_point run_end{};
    bool open = false;
    std::size_t i = first;
    for (; i < spans.size() && spans[i].start < end; ++i) {
      const Clock::time_point s = spans[i].start;
      const Clock::time_point e = std::min(spans[i].end, end);
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += Seconds(run_start, run_end);
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) covered += Seconds(run_start, run_end);
    first = i;
    self_ms.push_back((Seconds(begin, end) - covered) * 1e3);
  }
  return self_ms;
}

}  // namespace

bool CoreLog::EnsureRepair(Engine& engine) {
  const Clock::time_point start = Clock::now();
  const Status status = engine.EnsureRepair();
  reference_ms.push_back(SecondsSince(start) * 1e3);
  if (!status.ok()) {
    std::fprintf(stderr, "reference repair failed: %s\n",
                 status.ToString().c_str());
    ++failed;
    return false;
  }
  return true;
}

std::uint64_t CoreLog::Explain(Engine& engine, const ExplainRequest& request,
                               std::size_t backend) {
  const Clock::time_point start = Clock::now();
  Result<ExplainResult> result = engine.Explain(request);
  const Clock::time_point end = Clock::now();
  const double ms = Seconds(start, end) * 1e3;
  explain_ms.push_back(ms);
  intervals.emplace_back(start, end);
  explain_s[backend] += ms / 1e3;
  if (result.ok()) {
    evals += result->algorithm_calls + result->cache_hits;
    hits += result->cache_hits;
    cross_request_hits += result->cross_request_hits;
    sweeps += result->sweeps;
    if (result->kind == ExplainKind::kCells && result->explanation) {
      cell_players.push_back(
          static_cast<double>(result->explanation->ranked.size()));
    }
  } else {
    ++failed;
  }
  return Checksum(result);
}

void CoreLog::EngineDone(const Engine& engine) {
  memo_bytes_max = std::max(memo_bytes_max,
                            static_cast<double>(engine.approx_memo_bytes()));
}

void DirectPass::Explain(Engine& engine, const ExplainRequest& request,
                         std::size_t backend, std::uint64_t key) {
  checksums[key] = core.Explain(engine, request, backend);
  explain_ms[key] = core.explain_ms.back();
}

void AddStats(serving::ServiceStats* total, const serving::ServiceStats& one) {
  total->submitted += one.submitted;
  total->completed += one.completed;
  total->failed += one.failed;
  total->shed += one.shed;
  total->coalesced_batches += one.coalesced_batches;
  total->coalesced_jobs += one.coalesced_jobs;
  total->queue_high_water =
      std::max(total->queue_high_water, one.queue_high_water);
  total->router.hits += one.router.hits;
  total->router.misses += one.router.misses;
  total->router.evictions += one.router.evictions;
}

void Gate(const std::vector<TicketRecord>& tickets, const DirectPass& direct,
          RunOutput* out) {
  out->attempted += tickets.size();
  std::size_t not_ok = 0;
  std::size_t mismatches = 0;
  for (const TicketRecord& ticket : tickets) {
    auto it = direct.checksums.find(ticket.key);
    if (!ticket.ok) {
      ++not_ok;
    } else if (it == direct.checksums.end() || it->second != ticket.checksum) {
      ++mismatches;
    }
  }
  out->failed += not_ok + mismatches;
  if (not_ok > 0) out->Fail(std::to_string(not_ok) + " tickets failed");
  if (mismatches > 0) {
    out->Fail(std::to_string(mismatches) +
              " served answers differ from direct Engine::Explain");
  }
  if (direct.core.failed > 0) out->Fail("direct Engine::Explain failed");
}

void ReportEndToEnd(const EndToEnd& e2e, RunOutput* out) {
  out->Add("latency_p50_ms", e2e.latency_p50_ms, "ms");
  out->Add("latency_p90_ms", e2e.latency_p90_ms, "ms");
  out->Add("throughput_rps", e2e.throughput_rps, "1/s");
  out->Add("setup_s", e2e.setup_s, "s");
  out->Add("peak_rss_mb", e2e.peak_rss_mb, "MiB");
}

void ReportLayers(const std::vector<TicketRecord>& tickets,
                  const serving::ServiceStats& stats, double service_wall_s,
                  const SpanLog& service_spans, const DirectPass& untraced,
                  const DirectPass& traced, const SpanLog& direct_spans,
                  RunOutput* out) {
  Gate(tickets, traced, out);
  if (untraced.checksums != traced.checksums) {
    out->Fail("traced and untraced direct answers differ");
  }

  const RepairLayer repair = SummarizeRepairs(
      service_spans.Sorted(), service_wall_s, tickets.size() - out->failed);
  out->Add("repair.calls", repair.calls, "calls/req");
  out->Add("repair.busy_s", repair.busy_s, "s/req");
  out->Add("repair.call_us_p50", repair.call_us_p50, "us");
  out->Add("repair.call_us_p90", repair.call_us_p90, "us");
  out->Add("repair.inflight_mean", repair.inflight_mean, "calls");
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    out->Add(std::string("repair.call_ms_p50.") + kBackendNames[b],
             repair.call_ms_p50[b], "ms");
  }

  const CoreLog& core = traced.core;
  const double requests =
      static_cast<double>(std::max<std::size_t>(core.explain_ms.size(), 1));
  out->Add("core.explain_ms_p50", Quantile(core.explain_ms, 0.5), "ms");
  out->Add("core.explain_ms_p90", Quantile(core.explain_ms, 0.9), "ms");
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    out->Add(std::string("core.explain_s.") + kBackendNames[b],
             core.explain_s[b], "s");
  }
  out->Add("core.self_ms_p50",
           Median(SelfTimesMs(core.intervals, direct_spans.Sorted())), "ms");
  out->Add("core.evals_per_request", static_cast<double>(core.evals) / requests,
           "evals/req");
  out->Add("core.memo_hit_ratio",
           core.evals > 0 ? static_cast<double>(core.hits) /
                                static_cast<double>(core.evals)
                          : 0.0,
           "ratio");
  out->Add("core.cross_request_hits",
           static_cast<double>(core.cross_request_hits), "count");
  out->Add("core.sweeps_per_request",
           static_cast<double>(core.sweeps) / requests, "sweeps/req");
  out->Add("core.memo_mb", core.memo_bytes_max / (1024.0 * 1024.0), "MiB");
  out->Add("core.reference_repair_ms", Mean(core.reference_ms), "ms");

  std::vector<double> submit_us;
  std::vector<double> residual_ms;
  for (const TicketRecord& ticket : tickets) {
    submit_us.push_back(ticket.submit_us);
    auto it = traced.explain_ms.find(ticket.key);
    if (it != traced.explain_ms.end()) {
      residual_ms.push_back(ticket.latency_ms - it->second);
    }
  }
  out->Add("serving.submit_us_p50", Median(submit_us), "us");
  out->Add("serving.residual_ms_p50", Median(residual_ms), "ms");
  out->Add("serving.queue_high_water",
           static_cast<double>(stats.queue_high_water), "count");
  out->Add("serving.coalesced_frac",
           stats.completed > 0 ? static_cast<double>(stats.coalesced_jobs) /
                                     static_cast<double>(stats.completed)
                               : 0.0,
           "ratio");
  const std::size_t lookups = stats.router.hits + stats.router.misses;
  out->Add("router.hit_ratio",
           lookups > 0 ? static_cast<double>(stats.router.hits) /
                             static_cast<double>(lookups)
                       : 0.0,
           "ratio");
  out->Add("router.misses", static_cast<double>(stats.router.misses), "count");
  out->Add("router.evictions", static_cast<double>(stats.router.evictions),
           "count");
  out->Add("trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0,
           "ratio");
}

void RunOutput::Add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void RunOutput::Fail(const std::string& reason) {
  correct = false;
  std::fprintf(stderr, "CORRECTNESS: %s\n", reason.c_str());
}

}  // namespace trex::perfbench
