// The paper's unused-definition detector as the first registered checker.
// A thin adapter over DetectInFunction: the algorithm itself stays in
// src/core/detector.cc, the context supplies the memoized liveness and
// define-set fix points. Its fingerprint namespace is empty — the migration
// gate requires byte-identical findings and fingerprints vs the
// pre-framework detector.

#ifndef VALUECHECK_SRC_CHECKERS_UNUSED_DEF_CHECKER_H_
#define VALUECHECK_SRC_CHECKERS_UNUSED_DEF_CHECKER_H_

#include "src/checkers/checker.h"

namespace vc {

class UnusedDefChecker : public Checker {
 public:
  std::string name() const override { return "unused-def"; }
  std::string description() const override {
    return "unused definitions: stores and parameters never read (the paper's detector)";
  }
  std::string fingerprint_namespace() const override { return ""; }
  std::vector<UnusedDefCandidate> Check(CheckerContext& ctx) const override;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CHECKERS_UNUSED_DEF_CHECKER_H_
