#include "repair/algorithm.h"

#include <utility>

namespace trex::repair {
namespace {

/// The default preparation: no work up front, every call forwarded.
class ForwardingPreparedRepair : public PreparedRepair {
 public:
  ForwardingPreparedRepair(const RepairAlgorithm* algorithm,
                           std::shared_ptr<const Table> dirty)
      : algorithm_(algorithm), dirty_(std::move(dirty)) {}

  Result<Table> Repair(const dc::DcSet& dcs) const override {
    return algorithm_->Repair(dcs, *dirty_);
  }

 private:
  const RepairAlgorithm* algorithm_;
  std::shared_ptr<const Table> dirty_;
};

}  // namespace

std::unique_ptr<const PreparedRepair> RepairAlgorithm::Prepare(
    std::shared_ptr<const Table> dirty) const {
  return std::make_unique<ForwardingPreparedRepair>(this, std::move(dirty));
}

}  // namespace trex::repair
