#include "core/protection.hpp"

#include <cmath>

#include "core/nev.hpp"

namespace ckptfi::core {

GuardReport guard_checkpoint(mh5::File& file, const GuardConfig& cfg) {
  const NevClassifier classifier(cfg.extreme_threshold);
  GuardReport report;
  NevScan scan;
  file.visit([&](const std::string&, const mh5::Node& node) {
    if (!node.is_dataset()) return;
    if (cfg.action == RepairAction::Reject) {
      classifier.scan(node.dataset(), scan);
      return;
    }
    // visit() hands out const nodes; repairs mutate the same tree the caller
    // owns, so the const_cast is confined here.
    auto& ds = const_cast<mh5::Dataset&>(node.dataset());
    classifier.scan(ds, scan, [&](std::uint64_t i, NevClass cls) {
      // NaN has no usable sign; Clamp keeps the sign of Inf and extremes.
      const bool zero =
          cls == NevClass::Nan || cfg.action == RepairAction::Zero;
      ds.set_double(i, zero ? 0.0
                            : std::copysign(cfg.extreme_threshold,
                                            ds.get_double(i)));
      ++report.repaired;
    });
  });
  report.scanned = scan.total;
  report.nan_found = scan.nan;
  report.inf_found = scan.inf;
  report.extreme_found = scan.extreme;
  report.rejected =
      cfg.action == RepairAction::Reject && report.found() > 0;
  return report;
}

}  // namespace ckptfi::core
