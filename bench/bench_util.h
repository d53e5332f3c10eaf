// Shared helpers for the benchmark binaries: wall-clock timing and
// uniform PASS/DIVERGE verdict lines. Each bench prints the rows of the
// paper artifact it regenerates plus a verdict comparing the measured
// shape against the paper's claim; the README's sections quote the
// output.

#ifndef TREX_BENCH_BENCH_UTIL_H_
#define TREX_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <string>

namespace trex::bench {

/// Seconds elapsed while running `fn`.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

inline void Header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void Verdict(bool ok, const std::string& claim) {
  std::printf("[%s] %s\n", ok ? "PASS" : "DIVERGE", claim.c_str());
}

}  // namespace trex::bench

#endif  // TREX_BENCH_BENCH_UTIL_H_
