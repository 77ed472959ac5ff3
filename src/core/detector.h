// Unused-definition detection — the analysis core of the paper's Fig. 4.
//
// Per function: run backward liveness and the DefineSet analysis to their fix
// points, then replay each block from its out-state. A store whose slot is
// not live at that point is an unused definition; the DefineSet at the same
// point names the overwriting definitions. After the replay, any parameter
// absent from the entry live-in set is an unused parameter. Address-taken
// slots are suppressed (the paper's alias rule), as are globals (out of
// scope, §3.1) and synthetic temps that did not come from ignored calls.

#ifndef VALUECHECK_SRC_CORE_DETECTOR_H_
#define VALUECHECK_SRC_CORE_DETECTOR_H_

#include <vector>

#include "src/checkers/checker_context.h"
#include "src/core/project.h"
#include "src/core/unused_def.h"

namespace vc {

// Detects candidates in one lowered function: replays the context's
// memoized liveness and define sets (so N checkers share one computation).
// The context's meter, when set, bounds the work (fix points + replay, one
// step per instruction) and may throw BudgetExceededError.
std::vector<UnusedDefCandidate> DetectInFunction(CheckerContext& ctx);

// Runs the unused-def checker alone over every function of every unit,
// serially and without fault isolation, merged in module/function order (the
// paper's plain detector, as the preliminary study uses it).
std::vector<UnusedDefCandidate> DetectAll(const Project& project);

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_DETECTOR_H_
