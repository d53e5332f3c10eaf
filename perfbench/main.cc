// The T-REx benchmark program.
//
//   trex_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (interactive_session or backend_audit)
// on inputs generated from the seed, checks every answer against direct
// synchronous `Engine::Explain` calls, and prints one JSON object as the
// last line of standard output: the end-to-end metrics with --trace 0, or
// the per-layer metrics of a traced run with --trace 1. Progress and
// working-set notes go to standard error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using trex::perfbench::RunConfig;
using trex::perfbench::RunOutput;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: trex_perfbench --workload "
               "<interactive_session|backend_audit> --seed "
               "<n> --seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

void PrintJson(const RunOutput& out) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const trex::perfbench::Metric& metric = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--print-audit-pins") == 0) {
    trex::perfbench::PrintAuditPins();
    return 0;
  }
  std::string workload;
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed must be a non-negative integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 600) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace must be 0 or 1");
      }
      config.trace = value[0] == '1';
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed is required");

  RunOutput out;
  if (workload == "interactive_session") {
    out = trex::perfbench::RunInteractiveSession(config);
  } else if (workload == "backend_audit") {
    out = trex::perfbench::RunBackendAudit(config);
  } else {
    Usage("unknown workload");
  }
  std::fprintf(stderr, "error_rate: %zu failed / %zu attempted\n", out.failed,
               out.attempted);
  PrintJson(out);
  return 0;
}
