// The one command-line flag parser every binary and subcommand uses.
//
// A command declares its flags as a FlagTable: one FlagSpec row per flag
// (name, value name, help, apply hook). ParseFlags reads argv against the
// table and RenderUsage prints --help from the same rows, so the usage text
// cannot drift from what the parser accepts. Accepted spellings:
//
//   --name=value  --name value   value flags (the next argument is taken
//                                verbatim, even when it starts with "--")
//   --name                       switches (a value is an error)
//   --help, -h                   usage on stdout, exit 0
//   --                           every later argument is positional
//
// Any other argument that does not start with "--" is positional. Every
// complaint (unknown flag, missing value, value given to a switch, a value
// the apply hook rejects, an unexpected positional) is printed as
// "<program>: <message>" followed by the usage text on stderr, and the
// command exits 2.

#ifndef VALUECHECK_SRC_SUPPORT_FLAGS_H_
#define VALUECHECK_SRC_SUPPORT_FLAGS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace vc {

// Applies one occurrence of a flag. Returns "" when the value is accepted,
// otherwise the complaint, which ParseFlags prints after the flag's name.
// Switches are applied with an empty value.
using FlagApply = std::function<std::string(const std::string& value)>;

struct FlagSpec {
  const char* name;        // e.g. "--jobs"
  const char* value_name;  // e.g. "N"; nullptr for switches
  const char* help;        // may span lines
  FlagApply apply;
};

struct FlagTable {
  const char* program;   // complaint prefix, e.g. "valuecheck serve"
  const char* synopsis;  // usage lines printed above the flag rows
  std::vector<FlagSpec> flags;
  const char* epilog = nullptr;  // notes printed after the rows
};

// The --help text: synopsis, one aligned row per flag, the --help row, epilog.
std::string RenderUsage(const FlagTable& table);

// Prints "<program>: <message>" and the usage text to stderr; returns 2, the
// usage-error exit code, for the caller to return.
int FlagError(const FlagTable& table, const std::string& message);

// Parses `args` (argv without the program and subcommand names) against
// `table`, applying each flag in order. Positionals are appended to
// *positionals; when it is null any positional is an error. Returns the
// exit code when the command must stop (0 after --help, 2 after a
// complaint), or nullopt to run it.
std::optional<int> ParseFlags(const FlagTable& table, const std::vector<std::string>& args,
                              std::vector<std::string>* positionals);

// Apply hooks for the common value types. The numeric ones reject an empty
// value and trailing garbage ("12x"); a rejected value leaves `out` untouched.
FlagApply StoreString(std::string& out);
// A switch that sets `out` to `value`.
FlagApply SetBool(bool& out, bool value = true);
// A decimal integer >= floor.
FlagApply StoreInt(int& out, int floor);
// A non-negative decimal number.
FlagApply StoreDouble(double& out);
// An unsigned 64-bit decimal integer (strtoull rules: "-1" wraps).
FlagApply StoreU64(uint64_t& out);
// A comma-separated list: items are trimmed, empty items skipped, and at
// least one item is required. When `known` is set, every item must pass it
// or the value is rejected as "unknown <noun> 'item'". Replaces `out`.
FlagApply StoreList(std::vector<std::string>& out,
                    std::function<bool(const std::string&)> known = nullptr,
                    const char* noun = "name");

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_FLAGS_H_
