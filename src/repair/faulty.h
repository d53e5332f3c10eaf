// `FaultyAlgorithm`: a fault-injecting decorator over any repair backend.
//
// The serving stack treats repair algorithms as black boxes that always
// answer; this decorator is how tests and the chaos suite make them
// *stop* answering on a deterministic schedule, so retry loops, circuit
// breakers, and memo-integrity guarantees can be exercised end to end.
//
// Two independent fault channels compose:
//   1. A built-in schedule (`FaultyOptions`): fail the first
//      `fail_first` calls after `skip_first` pass-throughs, then fail
//      each call with `failure_rate`, drawn statelessly from `seed` and
//      the call index via splitmix64 — deterministic per call number
//      regardless of thread interleaving.
//   2. The process-wide injector (`common/fault.h`) via the
//      "repair.backend" site, so chaos plans can drive every decorated
//      backend in a run without plumbing options.
//
// Injected failures default to `kUnavailable` (transient): the serving
// layer retries them and counts them toward breaker windows. Configure
// `code` to a permanent category to test fail-fast classification.
//
// Like every `RepairAlgorithm`, the decorator is safe for concurrent
// `Repair` calls: its only mutable state is an atomic call counter. It
// keeps the default `Prepare`, which forwards every prepared call to
// this decorator's `Repair`, so the schedule and the "repair.backend"
// site see each repair call, prepared or not.

#ifndef TREX_REPAIR_FAULTY_H_
#define TREX_REPAIR_FAULTY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "repair/algorithm.h"

namespace trex::repair {

/// Built-in fault schedule for `FaultyAlgorithm`.
struct FaultyOptions {
  /// Calls that pass through before the schedule engages (e.g. 1 lets
  /// the engine's reference repair succeed and faults the first eval).
  std::size_t skip_first = 0;
  /// Engaged calls that fail before the schedule moves to rate mode.
  std::size_t fail_first = 0;
  /// Probability that each later call fails (stateless draw from
  /// `seed` ^ call index, so the failing call numbers are replayable).
  double failure_rate = 0.0;
  /// Seed for the failure-rate draws.
  std::uint64_t seed = 0;
  /// Code carried by injected failures; `kUnavailable` is transient.
  StatusCode code = StatusCode::kUnavailable;
};

/// Decorator that fails `Repair` calls on a deterministic schedule and
/// otherwise delegates to the wrapped backend (see file comment).
class FaultyAlgorithm : public RepairAlgorithm {
 public:
  FaultyAlgorithm(std::string name,
                  std::shared_ptr<const RepairAlgorithm> inner,
                  FaultyOptions options)
      : name_(std::move(name)), inner_(std::move(inner)),
        options_(options) {}

  /// Distinct routing name: decorated backends must not share an engine
  /// (and its memo) with their undecorated twin.
  std::string name() const override { return name_; }

  [[nodiscard]] Result<Table> Repair(const dc::DcSet& dcs,
                       const Table& dirty) const override;

  std::optional<dc::AttributeGraph> InfluenceGraph(
      const dc::DcSet& dcs, const Schema& schema) const override {
    return inner_->InfluenceGraph(dcs, schema);
  }

  /// Total `Repair` calls observed (successful or failed).
  std::size_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

  /// Calls that failed by schedule (not counting injector-site faults).
  std::size_t injected_failures() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::shared_ptr<const RepairAlgorithm> inner_;
  FaultyOptions options_;
  mutable std::atomic<std::size_t> calls_{0};
  mutable std::atomic<std::size_t> injected_{0};
};

}  // namespace trex::repair

#endif  // TREX_REPAIR_FAULTY_H_
