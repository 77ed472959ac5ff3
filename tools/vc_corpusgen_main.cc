// vc_corpusgen: streams a deterministic paper-shaped Mini-C corpus to disk.
//
//   vc_corpusgen --profile linux-like --scale medium --out /tmp/corpus
//   vc_corpusgen --history /tmp/h.vchist --commits 50
//
// Profiles mirror the paper's scalability subjects (many-small-files
// "linux-like", fewer-huge-files "mysql-like"); scales run from smoke-sized
// (small, ~10k LOC) through acceptance-sized (medium, >100k LOC) to
// sweep-sized (large, >1M LOC). Generation is streamed file-by-file, so the
// corpus is never held resident.
//
// --history switches to commit-history mode: instead of a directory of
// sources it writes one .vchist file (the format `valuecheck analyze
// --history` reads) synthesized by src/testing/history_gen.h — a module
// graph evolved through rewrites, whitespace touches, file adds/removes,
// renames, and signature changes. This is what tools/check.sh's incremental
// smoke and bench/bench_incremental replay. Exit codes: 0 success, 2 usage
// or I/O error.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/support/flags.h"
#include "src/testing/corpusgen.h"
#include "src/testing/history_gen.h"
#include "src/vcs/history_io.h"

int main(int argc, char** argv) {
  std::string profile_name;
  std::string scale;
  std::string out_dir;
  std::string history_path;
  uint64_t seed = 1;
  int files_override = 0;
  int commits = 50;
  int modules = 4;
  bool quiet = false;

  const vc::FlagTable flags = {
      "vc_corpusgen",
      "usage: vc_corpusgen --profile NAME --scale SCALE --out DIR\n"
      "                    [--files N] [--seed S] [--quiet]\n"
      "       vc_corpusgen --history FILE [--commits N] [--modules M]\n"
      "                    [--seed S] [--quiet]\n\n",
      {
          {"--profile", "NAME",
           "corpus shape: linux-like (many small files) or\n"
           "mysql-like (few huge files)",
           vc::StoreString(profile_name)},
          {"--scale", "SCALE", "small (~10k LOC), medium (>100k LOC), large (>1M LOC)",
           vc::StoreString(scale)},
          {"--out", "DIR", "output directory (created if missing)", vc::StoreString(out_dir)},
          {"--files", "N",
           "override the profile's file count (shape per file\n"
           "is unchanged; useful for quick smokes; 0 keeps it)",
           vc::StoreInt(files_override, 0)},
          {"--history", "FILE",
           "write a synthesized commit history (.vchist) instead\n"
           "of a source corpus; replay it with\n"
           "`valuecheck analyze --history FILE [--incremental]`",
           vc::StoreString(history_path)},
          {"--commits", "N", "history mode: number of commits (default 50)",
           vc::StoreInt(commits, 1)},
          {"--modules", "M", "history mode: initial module count (default 4)",
           vc::StoreInt(modules, 1)},
          {"--seed", "S", "corpus seed (default 1); same seed, same bytes", vc::StoreU64(seed)},
          {"--quiet", nullptr, "suppress the summary line", vc::SetBool(quiet)},
      }};
  if (std::optional<int> done =
          vc::ParseFlags(flags, std::vector<std::string>(argv + 1, argv + argc), nullptr)) {
    return *done;
  }

  if (!history_path.empty()) {
    if (!profile_name.empty() || !scale.empty() || !out_dir.empty()) {
      std::fprintf(stderr,
                   "vc_corpusgen: --history is a separate mode; drop "
                   "--profile/--scale/--out\n");
      return 2;
    }
    vc::testing::HistoryGenOptions options;
    options.seed = seed;
    options.commits = commits;
    options.initial_modules = modules;
    vc::Repository repo = vc::testing::GenerateHistory(options);
    std::ofstream out(history_path, std::ios::trunc | std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "vc_corpusgen: cannot write %s\n", history_path.c_str());
      return 2;
    }
    out << vc::SaveHistory(repo);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "vc_corpusgen: write to %s failed\n", history_path.c_str());
      return 2;
    }
    if (!quiet) {
      std::printf("history seed=%llu: %d commit(s), %d initial module(s) -> %s\n",
                  static_cast<unsigned long long>(seed), repo.NumCommits(), modules,
                  history_path.c_str());
    }
    return 0;
  }

  if (profile_name.empty() || scale.empty() || out_dir.empty()) {
    return vc::FlagError(flags, "--profile, --scale and --out are required");
  }

  vc::testing::CorpusProfile profile;
  if (!vc::testing::MakeCorpusProfile(profile_name, scale, seed, &profile)) {
    return vc::FlagError(flags, "unknown profile '" + profile_name + "' or scale '" + scale + "'");
  }
  if (files_override > 0) {
    profile.files = files_override;
  }

  vc::testing::CorpusStats stats;
  std::string error;
  if (!vc::testing::WriteCorpus(profile, out_dir, &stats, &error)) {
    std::fprintf(stderr, "vc_corpusgen: %s\n", error.c_str());
    return 2;
  }
  if (!quiet) {
    std::printf("corpus %s/%s seed=%llu: %d files, %lld lines, %lld bytes -> %s\n",
                profile.name.c_str(), profile.scale.c_str(),
                static_cast<unsigned long long>(profile.seed), stats.files,
                static_cast<long long>(stats.lines),
                static_cast<long long>(stats.bytes), out_dir.c_str());
  }
  return 0;
}
