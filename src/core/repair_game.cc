#include "core/repair_game.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "table/diff.h"

namespace trex {
namespace {

/// The per-thread evaluation scratch: one resident dirty-table copy per
/// thread, owned by whichever box evaluated last on this thread
/// (`owner` is the box's globally unique scratch id). Switching boxes
/// re-copies; staying on one box resets in O(#previous writes).
///
/// Retention trade-off: the copy outlives the owning box (thread-locals
/// cannot be reclaimed from another thread, e.g. when the router evicts
/// an engine) and is not part of `approx_memo_bytes` — a deliberate,
/// bounded cost of one dirty-table copy per evaluating thread, the same
/// order as the shared dirty table itself and reused in place by the
/// next box the thread serves.
struct EvalScratch {
  std::uint64_t owner = 0;
  Table table;
  /// Cells of `table` currently differing from the owner's dirty table.
  std::vector<CellRef> touched;
  /// Per-linear-index scratch marks (all zero between calls), used to
  /// intersect the previous and next write sets so consecutive
  /// evaluations reset/apply only what actually changed.
  std::vector<std::uint8_t> mark;
};

/// Bit-level value equality, stricter than `Value::operator==` (which
/// equates 1 with 1.0 and +0.0 with -0.0): skipping a scratch write, or
/// dropping a write from a canonical write set, is only sound when the
/// resident bytes hash identically to the write.
bool ExactlyEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.as_int() == b.as_int();
    case ValueType::kDouble: {
      const double x = a.as_double();
      const double y = b.as_double();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kString:
      return a == b;  // one interned record per text: a pointer compare
  }
  return false;
}

/// The characteristic function's cell predicate: `got` matches the
/// reference value `want` (a null matches only a null).
bool MatchesReference(const Value& got, const Value& want) {
  if (got.is_null() || want.is_null()) return got.is_null() && want.is_null();
  return got == want;
}

/// The canonical form of the write set `writes` against `dirty`: writes
/// bit-equal to the dirty value dropped, the rest ordered by linear
/// index. Points into `writes`; written into a per-thread scratch, valid
/// until the calling thread canonicalizes again.
const std::vector<const CellWrite*>& CanonicalWrites(
    const Table& dirty, std::span<const CellWrite> writes) {
  thread_local std::vector<const CellWrite*> canonical;
  canonical.clear();
  for (const CellWrite& write : writes) {
    if (!ExactlyEqual(dirty.at(write.cell), write.value)) {
      canonical.push_back(&write);
    }
  }
  std::sort(canonical.begin(), canonical.end(),
            [&dirty](const CellWrite* a, const CellWrite* b) {
              return dirty.LinearIndex(a->cell) < dirty.LinearIndex(b->cell);
            });
  return canonical;
}

bool SameWrites(const std::vector<CellWrite>& stored,
                const std::vector<const CellWrite*>& canonical) {
  if (stored.size() != canonical.size()) return false;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (!(stored[i].cell == canonical[i]->cell) ||
        !ExactlyEqual(stored[i].value, canonical[i]->value)) {
      return false;
    }
  }
  return true;
}

EvalScratch& ThreadEvalScratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

std::uint64_t NextScratchId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

BlackBoxRepair::CacheState::CacheState() : scratch_id(NextScratchId()) {}

Result<BlackBoxRepair> BlackBoxRepair::MakeMultiTarget(
    const repair::RepairAlgorithm* algorithm, dc::DcSet dcs, Table dirty,
    const std::vector<CellRef>& targets) {
  return MakeMultiTarget(algorithm, std::move(dcs),
                         std::make_shared<const Table>(std::move(dirty)),
                         targets);
}

Result<BlackBoxRepair> BlackBoxRepair::MakeMultiTarget(
    const repair::RepairAlgorithm* algorithm, dc::DcSet dcs,
    std::shared_ptr<const Table> dirty, const std::vector<CellRef>& targets) {
  if (algorithm == nullptr) {
    return Status::InvalidArgument("algorithm must not be null");
  }
  if (dirty == nullptr) {
    return Status::InvalidArgument("dirty table must not be null");
  }
  for (const CellRef& target : targets) {
    if (target.row >= dirty->num_rows() ||
        target.col >= dirty->num_columns()) {
      return Status::OutOfRange("target cell " + target.ToString() +
                                " outside the table");
    }
  }
  BlackBoxRepair box;
  box.algorithm_ = algorithm;
  box.dcs_ = std::move(dcs);
  box.dirty_ = std::move(dirty);
  box.state_ = std::make_unique<CacheState>();
  // The delta-evaluation base: every perturbation's fingerprints derive
  // from these in O(#writes).
  box.dirty_->DualFingerprint(&box.dirty_fp64_, &box.dirty_fp128_);
  // Every constraint-subset repair runs over this same dirty table: bind
  // the algorithm to it once (a no-op forwarder for black boxes).
  box.prepared_ = algorithm->Prepare(box.dirty_);
  TREX_ASSIGN_OR_RETURN(box.clean_, box.prepared_->Repair(box.dcs_));
  box.state_->calls.store(1);
  for (const CellRef& target : targets) {
    auto added = box.AddTarget(target);
    TREX_CHECK(added.ok());  // bounds were validated above
  }
  return box;
}

Result<BlackBoxRepair> BlackBoxRepair::Make(
    const repair::RepairAlgorithm* algorithm, dc::DcSet dcs, Table dirty,
    CellRef target) {
  return MakeMultiTarget(algorithm, std::move(dcs), std::move(dirty),
                         {target});
}

Result<std::size_t> BlackBoxRepair::AddTarget(CellRef target) {
  if (target.row >= dirty_->num_rows() ||
      target.col >= dirty_->num_columns()) {
    return Status::OutOfRange("target cell " + target.ToString() +
                              " outside the table");
  }
  if (std::optional<std::size_t> existing = FindTarget(target)) {
    return *existing;
  }
  TargetInfo info;
  info.cell = target;
  info.clean_value = clean_.at(target);
  const Value& dirty_value = dirty_->at(target);
  const bool both_null = dirty_value.is_null() && info.clean_value.is_null();
  info.was_repaired =
      !both_null && (dirty_value.is_null() || info.clean_value.is_null() ||
                     dirty_value != info.clean_value);
  targets_.push_back(std::move(info));
  target_index_.emplace(target, targets_.size() - 1);
  return targets_.size() - 1;
}

std::optional<std::size_t> BlackBoxRepair::FindTarget(CellRef target) const {
  auto it = target_index_.find(target);
  if (it == target_index_.end()) return std::nullopt;
  return it->second;
}

CellRef BlackBoxRepair::target(std::size_t index) const {
  TREX_CHECK_LT(index, targets_.size());
  return targets_[index].cell;
}

bool BlackBoxRepair::target_was_repaired(std::size_t index) const {
  TREX_CHECK_LT(index, targets_.size());
  return targets_[index].was_repaired;
}

std::size_t BlackBoxRepair::num_algorithm_calls() const {
  return state_->calls.load();
}

std::size_t BlackBoxRepair::num_cache_hits() const {
  return state_->hits.load();
}

std::size_t BlackBoxRepair::num_cross_request_hits() const {
  return state_->cross_request_hits.load();
}

std::size_t BlackBoxRepair::num_table_memo_entries() const {
  ReaderLock lock(state_->mu);
  return state_->table_entries;
}

std::size_t BlackBoxRepair::num_eval_table_copies() const {
  return state_->eval_table_copies.load();
}

std::size_t BlackBoxRepair::approx_memo_bytes() const {
  return state_->approx_bytes.load();
}

void BlackBoxRepair::BeginRequest(std::size_t request_id) const {
  state_->current_request.store(request_id);
  MutexLock lock(state_->error_mu);
  state_->eval_error = Status::Ok();
  state_->eval_abort = CancelSource();
}

CancelToken BlackBoxRepair::eval_abort_token() const {
  MutexLock lock(state_->error_mu);
  return state_->eval_abort.token();
}

Status BlackBoxRepair::eval_error() const {
  MutexLock lock(state_->error_mu);
  return state_->eval_error;
}

void BlackBoxRepair::RecordEvalError(const Status& status) const {
  CancelSource abort;
  {
    MutexLock lock(state_->error_mu);
    if (state_->eval_error.ok()) state_->eval_error = status;
    abort = state_->eval_abort;
  }
  // Fire outside the leaf lock: Cancel wakes waiters (e.g. a service
  // backoff parked on a merged token).
  abort.Cancel();
}

bool BlackBoxRepair::Outcome(const CacheEntry& entry,
                             std::size_t target_index) const {
  TREX_CHECK_LT(target_index, targets_.size());
  return !std::binary_search(entry.disagreements.begin(),
                             entry.disagreements.end(),
                             dirty_->LinearIndex(targets_[target_index].cell));
}

std::vector<std::size_t> BlackBoxRepair::Disagreements(
    const Table& repaired) const {
  TREX_CHECK(repaired.num_rows() == clean_.num_rows() &&
             repaired.num_columns() == clean_.num_columns())
      << "repair changed the table's shape";
  std::vector<std::size_t> disagreements;
  for (std::size_t row = 0; row < clean_.num_rows(); ++row) {
    for (std::size_t col = 0; col < clean_.num_columns(); ++col) {
      if (!MatchesReference(repaired.at(row, col), clean_.at(row, col))) {
        disagreements.push_back(clean_.LinearIndex({row, col}));
      }
    }
  }
  disagreements.shrink_to_fit();
  return disagreements;
}

std::uint64_t BlackBoxRepair::FullMask() const {
  return dcs_.size() == kMaxMaskConstraints
             ? ~std::uint64_t{0}
             : (std::uint64_t{1} << dcs_.size()) - 1;
}

bool BlackBoxRepair::ReferenceHit(std::size_t target_index) const {
  TREX_CHECK_LT(target_index, targets_.size());
  // Counted like a memo hit on an entry written before any request.
  state_->hits.fetch_add(1);
  if (state_->current_request.load() != 0) {
    state_->cross_request_hits.fetch_add(1);
  }
  const TargetInfo& info = targets_[target_index];
  return MatchesReference(clean_.at(info.cell), info.clean_value);
}

std::size_t BlackBoxRepair::EntryPayloadBytes(const CacheEntry& entry) const {
  // String payloads are shared interned records, owned by no entry.
  return sizeof(CacheEntry) + entry.writes.capacity() * sizeof(CellWrite) +
         entry.disagreements.capacity() * sizeof(std::size_t);
}

bool BlackBoxRepair::CountHit(const CacheEntry& entry,
                              std::size_t target_index) const {
  state_->hits.fetch_add(1);
  if (entry.request_id != state_->current_request.load()) {
    state_->cross_request_hits.fetch_add(1);
  }
  return Outcome(entry, target_index);
}

bool BlackBoxRepair::EvalConstraintSubset(std::uint64_t mask,
                                          std::size_t target_index) const {
  TREX_CHECK_LE(dcs_.size(), kMaxMaskConstraints)
      << "constraint subset masks support at most 64 constraints; "
      << "split the DcSet or extend the mask representation";
  TREX_CHECK_LT(target_index, targets_.size());
  // The grand coalition is the reference repair: Subset(all) == dcs_.
  if (cache_enabled_ && mask == FullMask()) return ReferenceHit(target_index);
  if (cache_enabled_) {
    ReaderLock lock(state_->mu);
    auto it = state_->mask_cache.find(mask);
    if (it != state_->mask_cache.end()) {
      return CountHit(it->second, target_index);
    }
  }
  const dc::DcSet subset = dcs_.Subset(mask);
  auto repaired = [&]() -> Result<Table> {
    TREX_FAULT_INJECT("repair.eval_constraint_miss");
    return prepared_->Repair(subset);
  }();
  if (!repaired.ok()) {
    // Failure channel, not a crash: record + abort, cache nothing (the
    // memo must never hold an entry a failed repair touched), and let
    // the sweep stop at its next cancel poll.
    RecordEvalError(
        repaired.status().WithPrefix("constraint-subset repair"));
    return false;
  }
  state_->calls.fetch_add(1);
  CacheEntry entry;
  entry.disagreements = Disagreements(*repaired);
  entry.request_id = state_->current_request.load();
  const bool outcome = Outcome(entry, target_index);
  if (cache_enabled_) {
    WriterLock lock(state_->mu);
    // A concurrent miss may have filled this mask already: keep it.
    auto [it, inserted] = state_->mask_cache.try_emplace(mask,
                                                         std::move(entry));
    if (inserted) {
      state_->approx_bytes.fetch_add(EntryPayloadBytes(it->second));
    }
  }
  return outcome;
}

const Table& BlackBoxRepair::MaterializeScratch(
    std::span<const CellWrite> writes) const {
  EvalScratch& scratch = ThreadEvalScratch();
  if (scratch.owner != state_->scratch_id) {
    // First evaluation of this box on this thread (or the thread last
    // served another box): pay one full copy, then amortize it across
    // every subsequent miss.
    scratch.table = *dirty_;
    scratch.touched.clear();
    scratch.mark.assign(dirty_->num_cells(), 0);
    scratch.owner = state_->scratch_id;
    state_->eval_table_copies.fetch_add(1);
  }
  // Reset-from-dirty intersected with the new write set: undo only the
  // previously-written cells not written again, and apply only writes
  // whose value actually changes — consecutive coalition evaluations
  // differ by one write, so this is O(changed), not O(write set).
  for (const CellWrite& write : writes) {
    scratch.mark[dirty_->LinearIndex(write.cell)] = 1;
  }
  for (const CellRef& cell : scratch.touched) {
    if (!scratch.mark[dirty_->LinearIndex(cell)]) {
      scratch.table.Set(cell, dirty_->at(cell));
    }
  }
  scratch.touched.clear();
  for (const CellWrite& write : writes) {
    if (!ExactlyEqual(scratch.table.at(write.cell), write.value)) {
      scratch.table.Set(write.cell, write.value);
    }
    scratch.touched.push_back(write.cell);
    scratch.mark[dirty_->LinearIndex(write.cell)] = 0;  // leave all-zero
  }
  return scratch.table;
}

std::optional<bool> BlackBoxRepair::LookupTableMemo(
    std::span<const CellWrite> writes, std::uint64_t fp64,
    const Hash128& fp128, std::size_t target_index) const {
  if (!cache_enabled_) return std::nullopt;
  ReaderLock lock(state_->mu);
  auto it = state_->table_cache.find(fp64);
  if (it == state_->table_cache.end()) return std::nullopt;
  const std::vector<const CellWrite*>* canonical = nullptr;
  for (const CacheEntry& entry : it->second) {
    // Never trust the 64-bit bucket fingerprint alone: a collision must
    // fall through to a fresh repair run, never return another input's
    // outcome. Verification is the 128-bit fingerprint, then the exact
    // canonical write set.
    if (entry.fp128 != fp128) continue;
    if (canonical == nullptr) canonical = &CanonicalWrites(*dirty_, writes);
    if (!SameWrites(entry.writes, *canonical)) continue;
    return CountHit(entry, target_index);
  }
  return std::nullopt;
}

bool BlackBoxRepair::EvalTable(const Table& perturbed,
                               std::size_t target_index) const {
  TREX_CHECK(perturbed.schema() == dirty_->schema() &&
             perturbed.num_cells() == dirty_->num_cells())
      << "EvalTable needs a table of the dirty table's shape";
  std::vector<CellWrite> writes;
  for (std::size_t row = 0; row < perturbed.num_rows(); ++row) {
    for (std::size_t col = 0; col < perturbed.num_columns(); ++col) {
      const Value& value = perturbed.at(row, col);
      if (!ExactlyEqual(value, dirty_->at(row, col))) {
        writes.push_back({{row, col}, value});
      }
    }
  }
  return EvalPerturbation(writes, target_index);
}

bool BlackBoxRepair::EvalPerturbation(std::span<const CellWrite> writes,
                                      std::size_t target_index) const {
  std::uint64_t fp64 = 0;
  Hash128 fp128;
  dirty_->DeltaFingerprint(dirty_fp64_, dirty_fp128_, writes, &fp64, &fp128);
  return EvalPerturbation(writes, fp64, fp128, target_index);
}

bool BlackBoxRepair::EvalPerturbation(std::span<const CellWrite> writes,
                                      std::uint64_t fp64,
                                      const Hash128& fp128,
                                      std::size_t target_index) const {
  TREX_CHECK_LT(target_index, targets_.size());
  // No writes: the dirty table itself, whose repair is the reference.
  if (cache_enabled_ && writes.empty()) return ReferenceHit(target_index);
  if (table_bucket_fn_) fp64 = table_bucket_fn_(fp64);
  const std::optional<bool> hit =
      LookupTableMemo(writes, fp64, fp128, target_index);
  if (hit.has_value()) return *hit;
  return EvalTableMiss(writes, fp64, fp128, target_index);
}

bool BlackBoxRepair::EvalTableMiss(std::span<const CellWrite> writes,
                                   std::uint64_t fp64, const Hash128& fp128,
                                   std::size_t target_index) const {
  // Only a miss materializes, into the per-thread scratch.
  const Table& perturbed = MaterializeScratch(writes);
  auto repaired = [&]() -> Result<Table> {
    TREX_FAULT_INJECT("repair.eval_table_miss");
    return algorithm_->Repair(dcs_, perturbed);
  }();
  if (!repaired.ok()) {
    // See EvalConstraintSubset: record + abort, and return before any
    // cache write so no CacheEntry is poisoned.
    RecordEvalError(repaired.status().WithPrefix("perturbed-table repair"));
    return false;
  }
  state_->calls.fetch_add(1);
  CacheEntry entry;
  entry.disagreements = Disagreements(*repaired);
  const bool outcome = Outcome(entry, target_index);
  if (!cache_enabled_) return outcome;
  const std::vector<const CellWrite*>& canonical =
      CanonicalWrites(*dirty_, writes);
  WriterLock lock(state_->mu);
  std::vector<CacheEntry>& bucket = state_->table_cache[fp64];
  // Re-check under the exclusive lock: a concurrent miss on the same
  // input may have inserted while we ran the repair — don't retain a
  // duplicate entry.
  for (const CacheEntry& resident : bucket) {
    if (resident.fp128 == fp128 && SameWrites(resident.writes, canonical)) {
      return outcome;
    }
  }
  entry.fp128 = fp128;
  entry.writes.reserve(canonical.size());
  for (const CellWrite* write : canonical) entry.writes.push_back(*write);
  entry.request_id = state_->current_request.load();
  state_->approx_bytes.fetch_add(EntryPayloadBytes(entry));
  bucket.push_back(std::move(entry));
  ++state_->table_entries;
  return outcome;
}

double ConstraintGame::Value(const shap::Coalition& coalition) const {
  TREX_CHECK_EQ(coalition.size(), num_players());
  // Guard before building the mask: shifting past bit 63 below would be
  // undefined behavior, silently corrupting the subset on wrap.
  TREX_CHECK_LE(coalition.size(), BlackBoxRepair::kMaxMaskConstraints)
      << "constraint games support at most 64 constraints";
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < coalition.size(); ++i) {
    if (coalition[i]) mask |= std::uint64_t{1} << i;
  }
  return box_->EvalConstraintSubset(mask, target_index_) ? 1.0 : 0.0;
}

const char* AbsentCellPolicyToString(AbsentCellPolicy policy) {
  switch (policy) {
    case AbsentCellPolicy::kNull:
      return "null";
    case AbsentCellPolicy::kSampleFromColumn:
      return "column-sample";
  }
  return "?";
}

CellGame::CellGame(const BlackBoxRepair* box, std::vector<CellRef> players,
                   std::size_t target_index, AbsentCellPolicy policy)
    : box_(box),
      players_(std::move(players)),
      target_index_(target_index),
      policy_(policy) {
  box_->dirty_fingerprints(&base64_, &base128_);
  null_deltas_.reserve(players_.size());
  for (const CellRef& player : players_) {
    null_deltas_.push_back(box_->dirty().WriteDelta(player, Value::Null()));
  }
  if (policy_ == AbsentCellPolicy::kSampleFromColumn) {
    columns_.resize(box_->dirty().num_columns());
    std::vector<bool> built(columns_.size(), false);
    for (const CellRef& player : players_) {
      if (built[player.col]) continue;
      columns_[player.col] = ColumnStats::Build(box_->dirty(), player.col);
      built[player.col] = true;
    }
  }
}

double CellGame::Value(const shap::Coalition& coalition) const {
  TREX_CHECK(policy_ == AbsentCellPolicy::kNull)
      << "the column-sample cell game has no fixed coalition values; "
         "sample it with permutation sweeps";
  TREX_CHECK_EQ(coalition.size(), players_.size());
  // Absent players become a write set over the dirty table; the
  // perturbation's fingerprints are the base XOR the precomputed
  // per-player deltas (no hashing here), and the perturbed table is
  // only materialized on a memo miss (then into the per-thread
  // scratch, never a fresh copy per coalition).
  thread_local std::vector<CellWrite> writes;
  writes.clear();
  std::uint64_t fp64 = base64_;
  Hash128 fp128 = base128_;
  for (std::size_t i = 0; i < players_.size(); ++i) {
    if (!coalition[i]) {
      writes.push_back({players_[i], Value::Null()});
      fp64 ^= null_deltas_[i].fp64;
      fp128 ^= null_deltas_[i].fp128;
    }
  }
  return box_->EvalPerturbation(writes, fp64, fp128, target_index_) ? 1.0
                                                                    : 0.0;
}

/// The running write set of one sweep: slot i of `writes_`/`deltas_`
/// holds an absent player's replacement and its fingerprint delta.
class CellGame::Sweep : public shap::SweepState {
 public:
  Sweep(const CellGame& game, Rng* rng) : game_(game) {
    const std::size_t n = game.players_.size();
    writes_.reserve(n);
    deltas_.reserve(n);
    slot_of_.resize(n);
    player_at_.resize(n);
    fp64_ = game.base64_;
    fp128_ = game.base128_;
    for (std::size_t i = 0; i < n; ++i) {
      const CellRef cell = game.players_[i];
      trex::Value value = Value::Null();
      FingerprintDelta delta = game.null_deltas_[i];
      if (game.policy_ == AbsentCellPolicy::kSampleFromColumn) {
        const ColumnStats& column = game.columns_[cell.col];
        if (column.total() > 0) value = column.Sample(rng);
        delta = game.box_->dirty().WriteDelta(cell, value);
      }
      fp64_ ^= delta.fp64;
      fp128_ ^= delta.fp128;
      writes_.push_back({cell, std::move(value)});
      deltas_.push_back(delta);
      slot_of_[i] = i;
      player_at_[i] = i;
    }
  }

  double Value() override {
    return game_.box_->EvalPerturbation(writes_, fp64_, fp128_,
                                        game_.target_index_)
               ? 1.0
               : 0.0;
  }

  void Join(std::size_t player) override {
    const std::size_t slot = slot_of_[player];
    const std::size_t last = writes_.size() - 1;
    const std::size_t moved = player_at_[last];
    fp64_ ^= deltas_[slot].fp64;  // deltas are self-inverse
    fp128_ ^= deltas_[slot].fp128;
    std::swap(writes_[slot], writes_[last]);
    std::swap(deltas_[slot], deltas_[last]);
    writes_.pop_back();
    deltas_.pop_back();
    slot_of_[moved] = slot;
    player_at_[slot] = moved;
  }

 private:
  const CellGame& game_;
  std::vector<CellWrite> writes_;
  std::vector<FingerprintDelta> deltas_;  // parallel to `writes_`
  std::vector<std::size_t> slot_of_;      // player -> slot
  std::vector<std::size_t> player_at_;    // slot -> player
  std::uint64_t fp64_ = 0;
  Hash128 fp128_;
};

std::unique_ptr<shap::SweepState> CellGame::BeginSweep(Rng* rng) const {
  return std::make_unique<Sweep>(*this, rng);
}

}  // namespace trex
