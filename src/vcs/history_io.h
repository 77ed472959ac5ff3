// Plain-text serialization of a Repository — the "vchist" format the CLI
// consumes so real projects can feed ValueCheck authorship data without a
// git binding. One block per commit:
//
//   commit
//   author <name>
//   time <unix-seconds>
//   message <single line>
//   write <path>
//   <<<
//   ...file content verbatim...
//   >>>
//   delete <path>
//   end
//
// `write`/`delete` may repeat within a commit; `#` starts a comment line
// outside content blocks. SaveHistory emits the same format, so histories
// round-trip.

#ifndef VALUECHECK_SRC_VCS_HISTORY_IO_H_
#define VALUECHECK_SRC_VCS_HISTORY_IO_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/vcs/repository.h"

namespace vc {

// Parses `text`; on failure returns nullopt and fills *error with a
// line-numbered message.
std::optional<Repository> LoadHistory(std::string_view text, std::string* error);

std::string SaveHistory(const Repository& repo);

}  // namespace vc

#endif  // VALUECHECK_SRC_VCS_HISTORY_IO_H_
