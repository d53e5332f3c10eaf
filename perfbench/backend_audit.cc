// backend_audit: the cross-backend world of the ROADMAP at 1000 rows. One
// client audits every backend at once: for each of the four backends it
// submits one burst of kConstraints requests, one per injected error cell
// that backend repaired, and waits for all of them. One service worker,
// one sweep thread. The `repair` layer (with the `table`/`dc` probes inside
// it) does nearly all the work — 17 large repair calls per backend — while
// `core` and `serving` are nearly idle, so a columnar-table or
// violation-probe change shows here and a memo or sweep change should not.
//
// The repair each backend makes is pinned: its cells_changed, errors_fixed
// and residual_violations, its target count, and a checksum of its answers
// must match audit_pins.inc, so a change that alters a repair fails here
// instead of looking faster. The seed picks one of kAuditWorlds pinned
// worlds; world 0 is the one bench_scalability --cross_backend_rows=1000
// measures.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "harness.h"
#include "repair/metrics.h"
#include "serving/service.h"
#include "table/diff.h"

namespace trex::perfbench {
namespace {

constexpr std::size_t kAuditWorlds = 16;
constexpr std::size_t kRows = 1000;
/// Bursts go in from the heaviest backend to the lightest, so every
/// ticket's latency spans the audit it is part of — what a batch caller
/// waits for — instead of splitting into per-backend clusters.
constexpr std::size_t kSubmitOrder[] = {3, 2, 1, 0};

struct Pin {
  std::size_t world;
  const char* backend;
  std::size_t cells_changed;
  std::size_t errors_fixed;
  std::size_t residual_violations;
  std::size_t targets;
  std::uint64_t checksum;
};

constexpr Pin kPins[] = {
#include "audit_pins.inc"
};

struct BackendPlan {
  std::vector<CellRef> targets;
  repair::RepairQuality quality;
};

struct World {
  std::size_t index = 0;
  dc::DcSet dcs;
  std::shared_ptr<const Table> dirty;
  BackendPlan plans[kNumBackends];
  bool ok = true;
};

World BuildWorld(std::size_t index) {
  World world;
  world.index = index;
  const Schema schema = data::SoccerSchema();
  data::SoccerGenOptions gen;
  gen.num_rows = kRows;
  gen.seed = 101 + 1000 * index;
  data::GeneratedData generated = data::GenerateSoccer(gen);
  data::ErrorInjectorOptions errors;
  errors.error_rate = 0.04;
  errors.max_errors = 256;
  errors.columns = {*schema.IndexOf("City"), *schema.IndexOf("Country")};
  errors.seed = 102 + 1000 * index;
  data::InjectionResult injected = data::InjectErrors(generated.clean, errors);
  world.dcs = generated.dcs;
  world.dirty = std::make_shared<const Table>(std::move(injected.dirty));
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    Result<Table> repaired = MakeBackend(b)->Repair(world.dcs, *world.dirty);
    if (!repaired.ok()) {
      std::fprintf(stderr, "%s reference repair failed: %s\n",
                   kBackendNames[b], repaired.status().ToString().c_str());
      world.ok = false;
      continue;
    }
    Result<repair::RepairQuality> quality = repair::EvaluateRepair(
        *world.dirty, *repaired, generated.clean, world.dcs);
    if (quality.ok()) world.plans[b].quality = *quality;
    world.ok = world.ok && quality.ok();
    for (const RepairedCell& error : injected.injected) {
      if (!(repaired->at(error.cell.row, error.cell.col) ==
            world.dirty->at(error.cell.row, error.cell.col))) {
        world.plans[b].targets.push_back(error.cell);
      }
    }
  }
  return world;
}

ExplainRequest AuditRequest(CellRef target) {
  ExplainRequest request;
  request.target = target;
  request.kind = ExplainKind::kConstraints;
  return request;
}

/// Identity of one request: backend and target index.
std::uint64_t RequestKey(std::size_t backend, std::size_t target) {
  return (static_cast<std::uint64_t>(backend) << 32) | target;
}

struct ServicePhase {
  std::vector<TicketRecord> tickets;
  /// Per audit: ticket latency p50 and p90 (ms), OK answers per second.
  std::vector<double> audit_p50_ms;
  std::vector<double> audit_p90_ms;
  std::vector<double> audit_rps;
  double wall_s = 0.0;
  serving::ServiceStats stats;
};

/// Whole audits, each on a fresh service, until `seconds` have passed. The
/// median over three or more audits leaves out the first, which runs in a
/// cold process and is the slowest.
ServicePhase RunService(const World& world, double seconds, SpanLog* log) {
  const Schema schema = data::SoccerSchema();
  std::shared_ptr<const repair::RepairAlgorithm> algorithms[kNumBackends];
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    algorithms[b] = Instrument(MakeBackend(b), b, log, world.dcs, schema);
  }
  ServicePhase phase;
  const Clock::time_point start = Clock::now();
  while (phase.audit_rps.empty() || SecondsSince(start) < seconds) {
    CompletionBoard board;
    serving::ServiceOptions options;
    options.num_workers = 1;
    options.router.engine_options.num_threads = 1;
    serving::ExplainService service(options);
    struct Pending {
      std::uint64_t key;
      std::size_t slot;
      Clock::time_point submit;
      double submit_us;
      serving::Ticket ticket;
    };
    std::vector<Pending> pending;
    const Clock::time_point audit_start = Clock::now();
    for (std::size_t b : kSubmitOrder) {
      const std::vector<CellRef>& targets = world.plans[b].targets;
      for (std::size_t t = 0; t < targets.size(); ++t) {
        auto [slot, callback] = board.Open();
        serving::RequestOptions request_options;
        request_options.on_complete = std::move(callback);
        const Clock::time_point submit = Clock::now();
        serving::Ticket ticket =
            service.Submit(algorithms[b], world.dcs, world.dirty,
                           AuditRequest(targets[t]), std::move(request_options));
        pending.push_back(Pending{RequestKey(b, t), slot, submit,
                                  SecondsSince(submit) * 1e6,
                                  std::move(ticket)});
      }
    }
    std::vector<double> latency_ms;
    std::size_t ok = 0;
    for (Pending& p : pending) {
      const Clock::time_point answered = board.Wait(p.slot);
      Result<ExplainResult> result = p.ticket.Wait();
      TicketRecord record;
      record.key = p.key;
      record.checksum = Checksum(result);
      record.ok = result.ok();
      record.submit_us = p.submit_us;
      record.latency_ms = Seconds(p.submit, answered) * 1e3;
      ok += record.ok ? 1 : 0;
      latency_ms.push_back(record.latency_ms);
      phase.tickets.push_back(record);
    }
    const double audit_s = SecondsSince(audit_start);
    phase.audit_p50_ms.push_back(Quantile(latency_ms, 0.5));
    phase.audit_p90_ms.push_back(Quantile(latency_ms, 0.9));
    phase.audit_rps.push_back(static_cast<double>(ok) / audit_s);
    AddStats(&phase.stats, service.stats());
  }
  phase.wall_s = SecondsSince(start);
  return phase;
}

/// Every audit request through direct synchronous `Engine::Explain` calls
/// on a fresh engine per backend, same options.
DirectPass RunDirect(const World& world, SpanLog* log) {
  const Schema schema = data::SoccerSchema();
  DirectPass pass;
  const Clock::time_point start = Clock::now();
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    Engine engine(Instrument(MakeBackend(b), b, log, world.dcs, schema),
                  world.dcs, world.dirty);
    if (!pass.core.EnsureRepair(engine)) continue;
    const std::vector<CellRef>& targets = world.plans[b].targets;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      pass.Explain(engine, AuditRequest(targets[t]), b, RequestKey(b, t));
    }
    pass.core.EngineDone(engine);
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

/// One backend's answers folded in target order: what audit_pins.inc pins.
std::uint64_t BackendChecksum(const DirectPass& direct, std::size_t backend) {
  std::uint64_t folded = 0;
  for (auto it = direct.checksums.lower_bound(RequestKey(backend, 0));
       it != direct.checksums.end() && (it->first >> 32) == backend; ++it) {
    folded = SubSeed(folded, it->second);
  }
  return folded;
}

/// Compares each backend's repair and answers with the pinned values; a
/// mismatch fails every request of that backend.
void CheckPins(const World& world, const DirectPass& direct,
               RunOutput* out) {
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    const BackendPlan& plan = world.plans[b];
    const Pin* pin = nullptr;
    for (const Pin& p : kPins) {
      if (p.world == world.index && std::string(p.backend) == kBackendNames[b]) {
        pin = &p;
      }
    }
    if (pin == nullptr) {
      out->Fail(std::string("no pin for ") + kBackendNames[b] + " in world " +
                std::to_string(world.index));
      continue;
    }
    if (pin->cells_changed != plan.quality.cells_changed ||
        pin->errors_fixed != plan.quality.errors_fixed ||
        pin->residual_violations != plan.quality.residual_violations ||
        pin->targets != plan.targets.size() ||
        pin->checksum != BackendChecksum(direct, b)) {
      std::fprintf(stderr,
                   "%s world %zu: cells_changed %zu errors_fixed %zu "
                   "residual_violations %zu targets %zu checksum %llu; pinned "
                   "%zu %zu %zu %zu %llu\n",
                   kBackendNames[b], world.index, plan.quality.cells_changed,
                   plan.quality.errors_fixed, plan.quality.residual_violations,
                   plan.targets.size(),
                   static_cast<unsigned long long>(BackendChecksum(direct, b)),
                   pin->cells_changed, pin->errors_fixed,
                   pin->residual_violations, pin->targets,
                   static_cast<unsigned long long>(pin->checksum));
      out->Fail(std::string(kBackendNames[b]) + " repair differs from its pin");
      out->failed += plan.targets.size();
    }
  }
}

}  // namespace

void PrintAuditPins() {
  for (std::size_t index = 0; index < kAuditWorlds; ++index) {
    const World world = BuildWorld(index);
    const DirectPass direct = RunDirect(world, nullptr);
    for (std::size_t b = 0; b < kNumBackends; ++b) {
      const BackendPlan& plan = world.plans[b];
      std::printf("{%zu, \"%s\", %zu, %zu, %zu, %zu, 0x%016llxULL},\n", index,
                  kBackendNames[b], plan.quality.cells_changed,
                  plan.quality.errors_fixed, plan.quality.residual_violations,
                  plan.targets.size(),
                  static_cast<unsigned long long>(BackendChecksum(direct, b)));
    }
    std::fflush(stdout);
  }
}

RunOutput RunBackendAudit(const RunConfig& config) {
  RunOutput out;
  World world;
  const std::size_t index = config.seed % kAuditWorlds;
  const double setup_s =
      MedianSetupSeconds(3, [&] { world = BuildWorld(index); });
  if (!world.ok) out.Fail("reference repairs failed");
  std::size_t requests = 0;
  for (const BackendPlan& plan : world.plans) requests += plan.targets.size();
  std::fprintf(stderr,
               "backend_audit: world %zu, %zu rows, %zu requests per audit "
               "(fd %zu, rule %zu, holistic %zu, holoclean %zu), 1 worker x 1 "
               "sweep thread, 4 engines vs router cap 8\n",
               index, kRows, requests, world.plans[0].targets.size(),
               world.plans[1].targets.size(), world.plans[2].targets.size(),
               world.plans[3].targets.size());

  if (!config.trace) {
    const ServicePhase phase = RunService(world, config.seconds, nullptr);
    const DirectPass direct = RunDirect(world, nullptr);
    Gate(phase.tickets, direct, &out);
    CheckPins(world, direct, &out);
    EndToEnd e2e;
    e2e.latency_p50_ms = Median(phase.audit_p50_ms);
    e2e.latency_p90_ms = Median(phase.audit_p90_ms);
    e2e.throughput_rps = Median(phase.audit_rps);
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = PeakRssMb();
    std::fprintf(stderr,
                 "backend_audit: %zu audits, %zu tickets in %.2fs, memo %.1f "
                 "MiB per engine\n",
                 phase.audit_rps.size(), phase.tickets.size(), phase.wall_s,
                 direct.core.memo_bytes_max / (1024.0 * 1024.0));
    ReportEndToEnd(e2e, &out);
    return out;
  }

  SpanLog service_spans;
  const ServicePhase phase = RunService(world, config.seconds, &service_spans);
  const DirectPass untraced = RunDirect(world, nullptr);
  SpanLog direct_spans;
  const DirectPass traced = RunDirect(world, &direct_spans);
  CheckPins(world, traced, &out);
  ReportLayers(phase.tickets, phase.stats, phase.wall_s, service_spans,
               untraced, traced, direct_spans, &out);
  return out;
}

}  // namespace trex::perfbench
