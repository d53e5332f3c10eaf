// interactive_session: the paper's GUI loop (§2.2–2.3). One client, closed
// loop. Each session opens a small generated soccer table under one
// backend; the user clicks repaired cells one at a time, and for each click
// the client asks for a cell ranking (kCells) and then a constraint ranking
// (kConstraints), waiting for each answer before sending the next. The
// `core` layer does most of the work: thousands of memo lookups and delta
// fingerprints per request over cheap repair calls, with the later clicks
// of a session hitting the memo entries the first click paid for (the
// session flow unsealed memo entries exist for).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "data/errors.h"
#include "data/generator.h"
#include "data/soccer.h"
#include "harness.h"
#include "serving/service.h"
#include "table/diff.h"

namespace trex::perfbench {
namespace {

/// Sessions per cycle. The timed loop replays whole cycles, so every run
/// covers the same sessions and reports the median over its cycles. Far
/// more sessions than the router holds, so a revisited session is cold.
constexpr std::size_t kSessions = 32;
/// Each session is one (backend, inspected column, table size) combination:
/// fd_repair or rule_repair (Algorithm 1), City or Country, and a size
/// stepping evenly through [kMinRows, kMaxRows]. The seed changes table
/// content, never this mix, so runs stay comparable.
constexpr std::size_t kSessionBackends[] = {0, 1};
constexpr const char* kInspectedColumns[] = {"City", "Country"};
constexpr std::size_t kMinRows = 12;
constexpr std::size_t kMaxRows = 24;
/// Errors injected into the inspected column.
constexpr std::size_t kErrors = 6;
/// The user clicks the first kClicks repaired cells of the inspected
/// column. Same column, same players, same seed: the first click pays for
/// the memo and the other clicks hit it, so every session is exactly one
/// cold click and kClicks - 1 warm ones, whatever the seed.
constexpr std::size_t kClicks = 4;
/// Fixed permutation-sweep budget of every kCells request (anytime off).
constexpr std::size_t kSweeps = 48;
/// One service worker, one sweep thread per engine. With two sweep threads
/// the figures drift by 20-30% between runs of one seed on a shared 4-core
/// host (see README.md, "Baseline anomalies"), wider than any bound a
/// regression could be caught within.
constexpr std::size_t kSweepThreads = 1;
/// Resident engines: the open session and the one before it. Finished
/// sessions age out, so memo memory stays bounded.
constexpr std::size_t kRouterCap = 2;

struct Session {
  std::size_t backend = 0;
  std::shared_ptr<const Table> dirty;
  std::vector<CellRef> targets;
  std::uint64_t explain_seed = 0;
};

struct World {
  dc::DcSet dcs;
  std::vector<Session> sessions;
};

World BuildWorld(std::uint64_t seed) {
  World world;
  const Schema schema = data::SoccerSchema();
  std::shared_ptr<const repair::RepairAlgorithm> backends[kNumBackends];
  for (std::size_t b : kSessionBackends) backends[b] = MakeBackend(b);
  std::uint64_t attempt = 0;
  while (world.sessions.size() < kSessions) {
    if (attempt == 16 * kSessions) {
      // The backends stopped repairing the injected errors: no inputs.
      std::fprintf(stderr, "interactive_session: too few repaired cells\n");
      std::exit(4);
    }
    const std::size_t i = world.sessions.size();
    Session session;
    session.backend = kSessionBackends[i % 2];
    const std::size_t column = *schema.IndexOf(kInspectedColumns[(i / 2) % 2]);
    data::SoccerGenOptions gen;
    gen.num_rows =
        kMinRows + (i / 4) * (kMaxRows - kMinRows) / (kSessions / 4 - 1);
    gen.seed = SubSeed(seed, 2 * attempt);
    data::GeneratedData generated = data::GenerateSoccer(gen);
    data::ErrorInjectorOptions errors;
    errors.error_rate = 0.5;
    errors.max_errors = kErrors;
    errors.columns = {column};
    errors.seed = SubSeed(seed, 2 * attempt + 1);
    session.explain_seed = SubSeed(seed, 0xce11 + attempt);
    ++attempt;
    data::InjectionResult injected =
        data::InjectErrors(generated.clean, errors);
    Result<Table> repaired =
        backends[session.backend]->Repair(generated.dcs, injected.dirty);
    if (!repaired.ok()) continue;
    Result<std::vector<RepairedCell>> diff =
        DiffTables(injected.dirty, *repaired);
    if (!diff.ok()) continue;
    for (const RepairedCell& cell : *diff) {
      if (cell.cell.col == column && session.targets.size() < kClicks) {
        session.targets.push_back(cell.cell);
      }
    }
    // Too few repairs in the column to click through: draw another table.
    if (session.targets.size() < kClicks) continue;
    session.dirty = std::make_shared<const Table>(std::move(injected.dirty));
    if (world.dcs.empty()) world.dcs = generated.dcs;
    world.sessions.push_back(std::move(session));
  }
  return world;
}

ExplainRequest ClickRequest(const Session& session, std::size_t click,
                            std::size_t kind) {
  ExplainRequest request;
  request.target = session.targets[click];
  if (kind == 0) {
    request.kind = ExplainKind::kCells;
    request.cells.method = CellMethod::kSampling;
    request.cells.policy = AbsentCellPolicy::kSampleFromColumn;
    request.cells.num_samples = kSweeps;
    request.cells.seed = session.explain_seed;
  } else {
    request.kind = ExplainKind::kConstraints;
  }
  return request;
}

/// Identity of one request: session, click, kind.
std::uint64_t RequestKey(std::size_t session, std::size_t click,
                         std::size_t kind) {
  return (static_cast<std::uint64_t>(session) << 32) | (click << 1) | kind;
}

struct ServicePhase {
  std::vector<TicketRecord> tickets;
  /// Per cycle: click latency p50 and p90 (ms) and OK answers per second.
  std::vector<double> cycle_p50_ms;
  std::vector<double> cycle_p90_ms;
  std::vector<double> cycle_rps;
  double wall_s = 0.0;
  serving::ServiceStats stats;
};

ServicePhase RunService(const World& world, double seconds, SpanLog* log) {
  const Schema schema = data::SoccerSchema();
  std::shared_ptr<const repair::RepairAlgorithm> algorithms[kNumBackends];
  for (std::size_t b : kSessionBackends) {
    algorithms[b] = Instrument(MakeBackend(b), b, log, world.dcs, schema);
  }
  ServicePhase phase;
  CompletionBoard board;
  serving::ServiceOptions options;
  options.num_workers = 1;
  options.router.max_engines = kRouterCap;
  options.router.engine_options.num_threads = kSweepThreads;
  serving::ExplainService service(options);

  const Clock::time_point start = Clock::now();
  while (phase.cycle_rps.empty() || SecondsSince(start) < seconds) {
    const Clock::time_point cycle_start = Clock::now();
    std::vector<double> click_ms;
    std::size_t ok = 0;
    for (std::size_t index = 0; index < world.sessions.size(); ++index) {
      const Session& session = world.sessions[index];
      for (std::size_t click = 0; click < session.targets.size(); ++click) {
        const Clock::time_point click_start = Clock::now();
        Clock::time_point answered = click_start;
        for (std::size_t kind = 0; kind < 2; ++kind) {
          auto [slot, callback] = board.Open();
          serving::RequestOptions request_options;
          request_options.on_complete = std::move(callback);
          const Clock::time_point submit = Clock::now();
          serving::Ticket ticket = service.Submit(
              algorithms[session.backend], world.dcs, session.dirty,
              ClickRequest(session, click, kind), std::move(request_options));
          const Clock::time_point submitted = Clock::now();
          answered = board.Wait(slot);
          Result<ExplainResult> result = ticket.Wait();
          TicketRecord record;
          record.key = RequestKey(index, click, kind);
          record.checksum = Checksum(result);
          record.ok = result.ok();
          record.submit_us = Seconds(submit, submitted) * 1e6;
          record.latency_ms = Seconds(submit, answered) * 1e3;
          ok += record.ok ? 1 : 0;
          phase.tickets.push_back(record);
        }
        click_ms.push_back(Seconds(click_start, answered) * 1e3);
      }
    }
    phase.cycle_p50_ms.push_back(Quantile(click_ms, 0.5));
    phase.cycle_p90_ms.push_back(Quantile(click_ms, 0.9));
    phase.cycle_rps.push_back(static_cast<double>(ok) /
                              SecondsSince(cycle_start));
  }
  phase.wall_s = SecondsSince(start);
  phase.stats = service.stats();
  return phase;
}

/// Replays one cycle, in the same click order, through direct synchronous
/// `Engine::Explain` calls on a fresh engine per session with the same
/// options and seeds.
DirectPass RunDirect(const World& world, SpanLog* log) {
  const Schema schema = data::SoccerSchema();
  DirectPass pass;
  const Clock::time_point start = Clock::now();
  EngineOptions options;
  options.num_threads = kSweepThreads;
  for (std::size_t index = 0; index < world.sessions.size(); ++index) {
    const Session& session = world.sessions[index];
    Engine engine(Instrument(MakeBackend(session.backend), session.backend,
                             log, world.dcs, schema),
                  world.dcs, session.dirty, options);
    if (!pass.core.EnsureRepair(engine)) continue;
    for (std::size_t click = 0; click < session.targets.size(); ++click) {
      for (std::size_t kind = 0; kind < 2; ++kind) {
        pass.Explain(engine, ClickRequest(session, click, kind),
                     session.backend, RequestKey(index, click, kind));
      }
    }
    pass.core.EngineDone(engine);
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

}  // namespace

RunOutput RunInteractiveSession(const RunConfig& config) {
  RunOutput out;
  World world;
  const double setup_s =
      MedianSetupSeconds(21, [&] { world = BuildWorld(config.seed); });
  std::size_t clicks = 0;
  for (const Session& session : world.sessions) clicks += session.targets.size();
  std::fprintf(stderr,
               "interactive_session: %zu sessions, %zu-%zu rows, %zu clicks "
               "per cycle, %zu sweeps/kCells, 1 worker x %zu sweep thread, "
               "router cap %zu\n",
               world.sessions.size(), kMinRows, kMaxRows, clicks, kSweeps,
               kSweepThreads, kRouterCap);

  if (!config.trace) {
    const ServicePhase phase = RunService(world, config.seconds, nullptr);
    const DirectPass direct = RunDirect(world, nullptr);
    Gate(phase.tickets, direct, &out);
    EndToEnd e2e;
    e2e.latency_p50_ms = Median(phase.cycle_p50_ms);
    e2e.latency_p90_ms = Median(phase.cycle_p90_ms);
    e2e.throughput_rps = Median(phase.cycle_rps);
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = PeakRssMb();
    for (std::size_t c = 0; c < phase.cycle_rps.size(); ++c) {
      std::fprintf(stderr, "  cycle %zu: p50 %.1f ms, p90 %.1f ms, %.1f/s\n",
                   c, phase.cycle_p50_ms[c], phase.cycle_p90_ms[c],
                   phase.cycle_rps[c]);
    }
    const std::vector<double>& players = direct.core.cell_players;
    std::fprintf(stderr,
                 "interactive_session: %zu cycles, %zu tickets in %.2fs, "
                 "%.0f-%.0f players per kCells request, peak engine memo "
                 "%.1f MiB\n",
                 phase.cycle_rps.size(), phase.tickets.size(), phase.wall_s,
                 Quantile(players, 0.0), Quantile(players, 1.0),
                 direct.core.memo_bytes_max / (1024.0 * 1024.0));
    ReportEndToEnd(e2e, &out);
    return out;
  }

  SpanLog service_spans;
  const ServicePhase phase = RunService(world, config.seconds, &service_spans);
  const DirectPass untraced = RunDirect(world, nullptr);
  SpanLog direct_spans;
  const DirectPass traced = RunDirect(world, &direct_spans);
  ReportLayers(phase.tickets, phase.stats, phase.wall_s, service_spans,
               untraced, traced, direct_spans, &out);
  return out;
}

}  // namespace trex::perfbench
