// vc_fuzz — differential fuzzing front end over src/testing.
//
// Generates seeded Mini-C programs, runs every enabled oracle on each
// (see src/testing/oracle.h), and on failure delta-debugs the program down to
// a small reproducer written to --corpus-dir. Deterministic: the same
// --seed/--iters pair replays the identical campaign; a MANIFEST's
// program_seed replays one program via --replay.
//
//   vc_fuzz --seed 42 --iters 500
//   vc_fuzz --seed 1 --iters 200 --time-budget 30 --corpus-dir fuzz-failures
//   vc_fuzz --replay 1234567890123456789
//   vc_fuzz --seed 7 --iters 50 --oracles jobs_determinism,metamorphic
//   vc_fuzz --seed 42 --iters 200 --inject-bug     # oracle demo: must fail
//
// Exit codes: 0 = all oracles passed, 1 = failures found, 2 = usage error.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/checkers/registry.h"
#include "src/support/flags.h"
#include "src/testing/fuzz.h"
#include "src/testing/oracle.h"

int main(int argc, char** argv) {
  vc::testing::FuzzOptions options;
  options.corpus_dir = "fuzz-failures";
  options.progress = &std::cerr;
  bool quiet = false;
  bool replay = false;
  uint64_t replay_seed = 0;
  std::vector<std::string> oracle_names;
  auto is_oracle = [](const std::string& name) {
    return vc::testing::OracleKindFromName(name).has_value();
  };
  auto is_checker = [](const std::string& name) {
    return vc::CheckerRegistry::Global().Find(name) != nullptr;
  };

  const vc::FlagTable flags = {
      "vc_fuzz",
      "usage: vc_fuzz [options]\n\n",
      {
          {"--seed", "N", "campaign seed (default 1)", vc::StoreU64(options.seed)},
          {"--iters", "N", "programs to generate and check (default 100)",
           vc::StoreInt(options.iterations, 0)},
          {"--time-budget", "S", "stop after S seconds (default: none)",
           vc::StoreDouble(options.time_budget_seconds)},
          {"--oracles", "LIST",
           "comma-separated subset of:\n"
           "clean_frontend jobs_determinism metrics_parity\n"
           "json_round_trip metamorphic degraded_run\n"
           "incremental_equivalence dataflow (default: all)",
           vc::StoreList(oracle_names, is_oracle, "oracle")},
          {"--checkers", "LIST",
           "comma-separated checker names the analyzed runs\n"
           "enable (default: the registry's default set)",
           vc::StoreList(options.oracle.checkers, is_checker, "checker")},
          {"--corpus-dir", "DIR",
           "write minimized reproducers here (default:\n"
           "fuzz-failures; pass '' to keep in memory)",
           vc::StoreString(options.corpus_dir)},
          {"--max-files", "N", "files per generated program (default 3)",
           vc::StoreInt(options.gen.max_files, 1)},
          {"--no-minimize", nullptr, "keep failing programs unreduced",
           vc::SetBool(options.minimize, false)},
          {"--replay", "SEED", "check exactly one program generated from SEED",
           [&](const std::string& v) {
             replay = true;
             return vc::StoreU64(replay_seed)(v);
           }},
          {"--inject-bug", nullptr,
           "simulate a detector merge bug in parallel runs\n"
           "(the jobs_determinism oracle must catch it)",
           [&options](const std::string&) {
             options.oracle.parallel_fault = vc::testing::DropOverwrittenFindingsFault();
             return std::string();
           }},
          {"--quiet", nullptr, "suppress progress output", vc::SetBool(quiet)},
      }};
  if (std::optional<int> done =
          vc::ParseFlags(flags, std::vector<std::string>(argv + 1, argv + argc), nullptr)) {
    return *done;
  }
  for (const std::string& name : oracle_names) {
    options.oracle.enabled.insert(*vc::testing::OracleKindFromName(name));
  }
  if (quiet) {
    options.progress = nullptr;
  }

  if (replay) {
    // One program, straight from the given seed (this is what a MANIFEST's
    // program_seed names). Reuse the campaign with a single iteration whose
    // derived seed is forced to the replayed one by shifting the campaign
    // seed space: generate directly instead.
    vc::testing::TestProgram program = vc::testing::GenerateProgram(replay_seed, options.gen);
    vc::testing::OracleOptions oracle_options = options.oracle;
    oracle_options.mutation_seed = replay_seed;
    vc::testing::OracleRunner runner(oracle_options);
    vc::testing::OracleVerdict verdict = runner.Check(program);
    if (!quiet) {
      for (const vc::testing::SourceFile& file : program.files) {
        std::cerr << "--- " << file.path << " (" << file.lines.size() << " lines)\n";
      }
    }
    if (verdict.Passed()) {
      std::printf("vc_fuzz: replay of seed %llu passed all oracles\n",
                  static_cast<unsigned long long>(replay_seed));
      return 0;
    }
    for (const vc::testing::OracleFailure& failure : verdict.failures) {
      std::printf("vc_fuzz: replay FAILURE oracle=%s%s%s detail=%s\n",
                  vc::testing::OracleKindName(failure.oracle),
                  failure.transform.empty() ? "" : " transform=",
                  failure.transform.c_str(), failure.detail.c_str());
    }
    return 1;
  }

  vc::testing::FuzzResult result = vc::testing::RunFuzzCampaign(options);
  std::printf("vc_fuzz: %d iteration(s) in %.1fs, %zu failure(s)\n", result.iterations_run,
              result.seconds, result.failures.size());
  for (const vc::testing::FuzzFailure& failure : result.failures) {
    std::printf("  iteration %d seed %llu oracle %s%s%s: %s\n", failure.iteration,
                static_cast<unsigned long long>(failure.program_seed),
                vc::testing::OracleKindName(failure.oracle),
                failure.transform.empty() ? "" : " transform ", failure.transform.c_str(),
                failure.detail.c_str());
    if (!failure.reproducer_dir.empty()) {
      std::printf("    reproducer: %s (%d lines)\n", failure.reproducer_dir.c_str(),
                  failure.reproducer.TotalLines());
    }
  }
  return result.Clean() ? 0 : 1;
}
