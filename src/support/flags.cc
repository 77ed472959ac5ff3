#include "src/support/flags.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/support/string_util.h"

namespace vc {

namespace {

// Help text starts in this column; a longer flag head wraps onto its own line.
constexpr size_t kHelpColumn = 21;

void AppendRow(std::string& out, const std::string& head, const char* help) {
  const std::string pad(kHelpColumn + 2, ' ');
  out += "  " + head;
  if (head.size() >= kHelpColumn) {
    out += "\n";
    out += pad;
  } else {
    out += std::string(kHelpColumn - head.size(), ' ');
  }
  std::istringstream lines(help);
  std::string line;
  for (bool first = true; std::getline(lines, line); first = false) {
    if (!first) {
      out += pad;
    }
    out += line + "\n";
  }
}

const FlagSpec* FindFlag(const FlagTable& table, const std::string& name) {
  for (const FlagSpec& flag : table.flags) {
    if (name == flag.name) {
      return &flag;
    }
  }
  return nullptr;
}

std::string Rejected(const std::string& expected, const std::string& value) {
  return "expects " + expected + ", got '" + value + "'";
}

}  // namespace

std::string RenderUsage(const FlagTable& table) {
  std::string out = table.synopsis;
  for (const FlagSpec& flag : table.flags) {
    std::string head = flag.name;
    if (flag.value_name != nullptr) {
      head += std::string("=") + flag.value_name;
    }
    AppendRow(out, head, flag.help);
  }
  AppendRow(out, "--help, -h", "print this summary");
  if (table.epilog != nullptr) {
    out += std::string("\n") + table.epilog;
  }
  return out;
}

int FlagError(const FlagTable& table, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", table.program, message.c_str());
  std::fputs(RenderUsage(table).c_str(), stderr);
  return 2;
}

std::optional<int> ParseFlags(const FlagTable& table, const std::vector<std::string>& args,
                              std::vector<std::string>* positionals) {
  bool only_positionals = false;  // set once `--` is seen
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!only_positionals && (arg == "--help" || arg == "-h")) {
      std::fputs(RenderUsage(table).c_str(), stdout);
      return 0;
    }
    if (!only_positionals && arg == "--") {
      only_positionals = true;
      continue;
    }
    if (only_positionals || arg.rfind("--", 0) != 0) {
      if (positionals == nullptr) {
        return FlagError(table, "unexpected argument '" + arg + "'");
      }
      positionals->push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const FlagSpec* flag = FindFlag(table, name);
    if (flag == nullptr) {
      return FlagError(table, "unknown option " + arg);
    }
    std::string value;
    if (eq != std::string::npos) {
      if (flag->value_name == nullptr) {
        return FlagError(table, name + " does not take a value");
      }
      value = arg.substr(eq + 1);
    } else if (flag->value_name != nullptr) {
      if (i + 1 >= args.size()) {
        return FlagError(table, name + " expects a value");
      }
      value = args[++i];
    }
    std::string complaint = flag->apply(value);
    if (!complaint.empty()) {
      return FlagError(table, name + ": " + complaint);
    }
  }
  return std::nullopt;
}

FlagApply StoreString(std::string& out) {
  return [&out](const std::string& value) {
    out = value;
    return std::string();
  };
}

FlagApply SetBool(bool& out, bool value) {
  return [&out, value](const std::string&) {
    out = value;
    return std::string();
  };
}

FlagApply StoreInt(int& out, int floor) {
  return [&out, floor](const std::string& value) {
    char* end = nullptr;
    long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || parsed < floor || parsed > INT_MAX) {
      return Rejected("an integer >= " + std::to_string(floor), value);
    }
    out = static_cast<int>(parsed);
    return std::string();
  };
}

FlagApply StoreDouble(double& out) {
  return [&out](const std::string& value) {
    char* end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !(parsed >= 0.0)) {
      return Rejected("a non-negative number", value);
    }
    out = parsed;
    return std::string();
  };
}

FlagApply StoreU64(uint64_t& out) {
  return [&out](const std::string& value) {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return Rejected("an unsigned integer", value);
    }
    out = parsed;
    return std::string();
  };
}

FlagApply StoreList(std::vector<std::string>& out, std::function<bool(const std::string&)> known,
                    const char* noun) {
  return [&out, known = std::move(known), noun](const std::string& value) {
    std::vector<std::string> items;
    for (std::string_view part : Split(value, ',')) {
      std::string item(Trim(part));
      if (item.empty()) {
        continue;
      }
      if (known && !known(item)) {
        return std::string("unknown ") + noun + " '" + item + "'";
      }
      items.push_back(std::move(item));
    }
    if (items.empty()) {
      return std::string("expects at least one ") + noun;
    }
    out = std::move(items);
    return std::string();
  };
}

}  // namespace vc
