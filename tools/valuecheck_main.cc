// valuecheck — the command-line front end over the vc::Analysis facade.
//
// Subcommands:
//
//   valuecheck analyze [options] <file.c|dir>... | --history <file.vchist>
//       Run the pipeline (the default when the first argument is not a
//       subcommand name, so `valuecheck src/` keeps working). Two modes:
//       directory/file mode analyzes Mini-C sources from disk without
//       authorship (every unused definition, unranked — a precise dead-store
//       checker); history mode loads a .vchist commit history (see
//       src/vcs/history_io.h) and runs the full pipeline with cross-scope
//       filtering, pruning, and familiarity ranking. With --ledger DIR the
//       run (findings + fingerprints + metrics) is appended to the run
//       ledger for later diffs.
//
//   valuecheck diff [--ledger DIR] [runA runB] [--check]
//       Classify findings across two ledger runs as new/fixed/persistent by
//       stable fingerprint and compare metrics. --check exits non-zero on
//       new findings or metric regressions — the CI gate.
//
//   valuecheck history [--ledger DIR]
//       Table of recorded runs.
//
//   valuecheck report [--ledger DIR] --html FILE
//       Self-contained HTML dashboard (findings, deltas, trend sparklines).
//
//   valuecheck serve [--socket PATH | --port N] [options]
//       Long-lived analysis daemon (DESIGN.md §19): warm per-project
//       incremental state, bounded admission with load shedding, per-request
//       deadlines and quarantine. SIGTERM/SIGINT drains in-flight requests
//       and flushes the ledger/metrics artifacts before exiting; drive it
//       with vc_loadgen.
//
// Each command parses its flags from one vc::FlagTable (src/support/flags.h),
// which also renders its --help. Every analyze flag maps onto a
// vc::AnalysisOptions field (or a report/output control), named on the last
// line of its help text.
//
// analyze exit codes: 0 no findings, 1 findings, 2 usage/parse error,
// 3 quarantined units under --strict (graceful mode reports the quarantine on
// stderr and in the schema-v7 report but keeps the 0/1 contract).
//
// Observability flags (--metrics, --metrics-out, --trace, --profile,
// --events, --progress) only ever write to stderr or side files: findings on
// stdout are byte-identical with any combination of them on or off.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/checkers/checker.h"
#include "src/checkers/registry.h"
#include "src/core/analysis.h"
#include "src/core/html_dashboard.h"
#include "src/core/incremental.h"
#include "src/core/report_formats.h"
#include "src/core/run_diff.h"
#include "src/server/server.h"
#include "src/support/events.h"
#include "src/support/file_io.h"
#include "src/support/flags.h"
#include "src/support/logging.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/support/profile_export.h"
#include "src/support/run_ledger.h"
#include "src/support/shutdown.h"
#include "src/support/span_analysis.h"
#include "src/support/string_util.h"
#include "src/support/table_writer.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/vcs/history_io.h"

namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::string text;
  std::string error;
  if (!vc::ReadWholeFile(path, &text, &error)) {
    std::fprintf(stderr, "valuecheck: %s\n", error.c_str());
    std::exit(2);
  }
  return text;
}

// EnsureParentDir, with the complaint on stderr.
bool EnsureOutputDir(const std::string& path) {
  std::string error;
  if (!vc::EnsureParentDir(path, &error)) {
    std::fprintf(stderr, "valuecheck: %s\n", error.c_str());
    return false;
  }
  return true;
}

std::string FormatTimestamp(int64_t timestamp_ms) {
  if (timestamp_ms <= 0) {
    return "-";
  }
  std::time_t seconds = static_cast<std::time_t>(timestamp_ms / 1000);
  std::tm tm_utc{};
  gmtime_r(&seconds, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_utc);
  return buf;
}

// ---------------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------------

struct CliOptions {
  std::string history_path;
  std::string format = "text";
  std::string trace_path;
  std::string profile_path;
  std::string perf_report_path;
  std::string events_path;
  std::string metrics_out_path;
  std::string ledger_dir;
  std::string label;
  std::string cache_dir;
  bool incremental = false;
  bool metrics = false;
  bool progress = false;
  int top = -1;
  bool all_scopes = false;
  bool strict = false;
  vc::AnalysisOptions analysis;
  std::vector<std::string> inputs;
};

void PrintCheckerList(FILE* out) {
  vc::TableWriter table({"name", "kind", "description"});
  for (const vc::Checker* checker : vc::CheckerRegistry::Global().All()) {
    table.AddRow({checker->name(), checker->is_baseline() ? "baseline" : "default",
                  checker->description()});
  }
  std::fputs(table.RenderText().c_str(), out);
  std::fputs(
      "\nBaseline checkers model the §8.4 comparison tools; they are excluded\n"
      "from the default set and only run when named in --checkers.\n",
      out);
}

bool IsRegisteredChecker(const std::string& name) {
  return vc::CheckerRegistry::Global().Find(name) != nullptr;
}

// --log-level, shared by analyze and serve.
vc::FlagSpec LogLevelFlag() {
  return {"--log-level", "LEVEL", "stderr log verbosity: error, warn (default), info, debug",
          [](const std::string& v) {
            std::optional<vc::LogLevel> level = vc::ParseLogLevel(v);
            if (!level.has_value()) {
              return "unknown log level '" + v + "' (expected error, warn, info, debug)";
            }
            vc::SetLogLevel(*level);
            return std::string();
          }};
}

// The analyze flags. Each help text ends with the AnalysisOptions field (or
// output control) the flag drives, so --help documents the API surface.
vc::FlagTable AnalyzeFlags(CliOptions& o) {
  return {"valuecheck",
          "usage: valuecheck [analyze] [options] <file.c|dir>... | --history <file.vchist>\n"
          "       valuecheck diff    [--ledger DIR] [runA runB] [--check] [diff options]\n"
          "       valuecheck history [--ledger DIR] [--limit N] [--compact N]\n"
          "       valuecheck report  [--ledger DIR] --html FILE\n"
          "       valuecheck serve   [--socket PATH | --port N] [serve options]\n"
          "\n"
          "`valuecheck COMMAND --help` lists the options of the other commands.\n"
          "Arguments after `--` are always input paths, never flags.\n"
          "\nanalyze options:\n",
          {
              {"--history", "FILE",
               "load a vchist commit history (enables authorship, cross-scope\n"
               "filtering, and familiarity ranking)\n"
               "[input mode]",
               vc::StoreString(o.history_path)},
              {"--incremental", nullptr,
               "replay the --history commits through the incremental engine:\n"
               "each commit re-parses only its touched files and re-runs\n"
               "checkers only on the dirty function slice, yet yields the\n"
               "complete finding set as of that commit (byte-identical to a\n"
               "full run). Per-commit work accounting goes to stderr; the\n"
               "report printed on stdout is the one for the head commit\n"
               "[incremental engine]",
               vc::SetBool(o.incremental)},
              {"--cache-dir", "DIR",
               "persist the per-file analysis cache under DIR so a later\n"
               "--incremental run in a fresh process skips re-analyzing\n"
               "functions whose file content, checker set, and configuration\n"
               "are unchanged; corrupt entries degrade to a re-parse via the\n"
               "quarantine channel, never a failed run\n"
               "[incremental engine]",
               vc::StoreString(o.cache_dir)},
              {"--jobs", "N",
               "parallel worker lanes for parse/lower and detection\n"
               "(default 1; 0 = all hardware threads; output is identical\n"
               "at any value)\n"
               "[AnalysisOptions::jobs]",
               vc::StoreInt(o.analysis.jobs, 0)},
              {"--format", "FMT",
               "output format: text (default), csv, json, sarif\n"
               "[output control]",
               [&o](const std::string& v) {
                 if (v != "text" && v != "csv" && v != "json" && v != "sarif") {
                   return "unknown format '" + v + "' (expected text, csv, json, sarif)";
                 }
                 o.format = v;
                 return std::string();
               }},
              {"--ledger", "DIR",
               "append this run (findings + fingerprints + metrics) to the\n"
               "run ledger at DIR (created if missing); `valuecheck diff`,\n"
               "`history`, and `report` read it back. Implies metrics\n"
               "collection (findings stay byte-identical) without the\n"
               "--metrics stderr tables\n"
               "[run ledger]",
               vc::StoreString(o.ledger_dir)},
              {"--label", "NAME",
               "free-form provenance label stored with the ledger record\n"
               "(default: the input path or history file)\n"
               "[run ledger]",
               vc::StoreString(o.label)},
              {"--trace", "FILE",
               "write a Chrome trace-event JSON of the run (load in\n"
               "chrome://tracing or Perfetto); parent dirs are created\n"
               "[observability]",
               vc::StoreString(o.trace_path)},
              {"--profile", "FILE",
               "write a collapsed-stack CPU profile of the run (one\n"
               "`frame;frame count` line per stack, flamegraph.pl /\n"
               "speedscope format); built from the same spans as --trace\n"
               "[observability]",
               vc::StoreString(o.profile_path)},
              {"--perf-report", "FILE",
               "write per-run performance analytics as JSON: critical path\n"
               "(folded listing), Amdahl serial fraction, per-worker\n"
               "utilization timelines, imbalance and steal-latency stats;\n"
               "validate with `vc_obs_lint perf FILE`\n"
               "[observability]",
               vc::StoreString(o.perf_report_path)},
              {"--events", "FILE",
               "stream machine-readable run events (run_start, per-file and\n"
               "per-stage stage_start/stage_end, checker_done, quarantine,\n"
               "run_end) as JSON lines to FILE while the run executes\n"
               "[observability]",
               vc::StoreString(o.events_path)},
              {"--metrics-out", "FILE",
               "dump the metrics registry (every counter, gauge, and\n"
               "histogram, including mem.*) in Prometheus text exposition\n"
               "format to FILE; implies metrics collection without the\n"
               "--metrics stderr tables\n"
               "[observability]",
               vc::StoreString(o.metrics_out_path)},
              {"--progress", nullptr,
               "live one-line progress heartbeat on stderr (files/functions\n"
               "done, findings, throughput, ETA); findings on stdout are\n"
               "byte-identical with or without it\n"
               "[observability]",
               vc::SetBool(o.progress)},
              {"--metrics", nullptr,
               "collect per-stage metrics and print a stats table to stderr\n"
               "[AnalysisOptions::collect_metrics]",
               vc::SetBool(o.metrics)},
              LogLevelFlag(),
              {"--top", "K",
               "print only the K highest-ranked findings (text mode)\n"
               "[output control]",
               vc::StoreInt(o.top, 0)},
              {"--all-scopes", nullptr,
               "keep non-cross-scope findings even in history mode\n"
               "[AnalysisOptions::cross_scope_only]",
               vc::SetBool(o.all_scopes)},
              {"--strict", nullptr,
               "exit 3 when any unit was quarantined (default: graceful —\n"
               "report the surviving findings, note the quarantine on stderr,\n"
               "and exit 0/1 as usual)\n"
               "[fault isolation]",
               vc::SetBool(o.strict)},
              {"--fault-inject", "SEED:RATE",
               "deterministically quarantine ~RATE of units at seeded\n"
               "injection sites (robustness testing; e.g. 42:0.1). The\n"
               "quarantine list and surviving findings are identical at any\n"
               "--jobs for a given SEED:RATE\n"
               "[AnalysisOptions::fault]",
               [&o](const std::string& v) {
                 std::string error;
                 std::optional<vc::FaultInjector> fault = vc::FaultInjector::Parse(v, &error);
                 if (fault.has_value()) {
                   o.analysis.fault = *fault;
                 }
                 return error;
               }},
              {"--define", "NAME[=V]",
               "define a preprocessor macro for #if evaluation\n"
               "[AnalysisOptions::config]",
               [&o](const std::string& v) {
                 size_t eq = v.find('=');
                 if (eq == std::string::npos) {
                   o.analysis.config.Define(v);
                 } else {
                   o.analysis.config.Define(v.substr(0, eq),
                                            std::strtoll(v.c_str() + eq + 1, nullptr, 0));
                 }
                 return std::string();
               }},
              {"--no-prune-config", nullptr,
               "disable configuration-dependency pruning\n"
               "[AnalysisOptions::prune.config_dependency]",
               vc::SetBool(o.analysis.prune.config_dependency, false)},
              {"--no-prune-cursor", nullptr,
               "disable cursor-pattern pruning\n"
               "[AnalysisOptions::prune.cursor]",
               vc::SetBool(o.analysis.prune.cursor, false)},
              {"--no-prune-hints", nullptr,
               "disable unused-hint pruning\n"
               "[AnalysisOptions::prune.unused_hints]",
               vc::SetBool(o.analysis.prune.unused_hints, false)},
              {"--no-prune-peer", nullptr,
               "disable peer-definition pruning\n"
               "[AnalysisOptions::prune.peer_definition]",
               vc::SetBool(o.analysis.prune.peer_definition, false)},
              {"--stale-code", nullptr,
               "enable commit-history stale-code pruning (needs history)\n"
               "[AnalysisOptions::prune.stale_code]",
               vc::SetBool(o.analysis.prune.stale_code)},
              {"--ea-model", nullptr,
               "rank with the EA familiarity model instead of DOK\n"
               "[AnalysisOptions::ranking.use_ea_model]",
               vc::SetBool(o.analysis.ranking.use_ea_model)},
              {"--checkers", "LIST",
               "comma-separated checker names to run (see --list-checkers;\n"
               "default: every non-baseline checker)\n"
               "[AnalysisOptions::checkers]",
               vc::StoreList(o.analysis.checkers, IsRegisteredChecker, "checker")},
              {"--list-checkers", nullptr, "print the registered checkers and exit",
               [](const std::string&) {
                 PrintCheckerList(stdout);
                 std::exit(0);
                 return std::string();
               }},
          }};
}

// Returns the exit code when analyze must stop before running.
std::optional<int> ParseAnalyzeArgs(const std::vector<std::string>& args, CliOptions& options) {
  const vc::FlagTable table = AnalyzeFlags(options);
  if (std::optional<int> done = vc::ParseFlags(table, args, &options.inputs)) {
    return done;
  }
  if (options.history_path.empty() && options.inputs.empty()) {
    std::fputs(vc::RenderUsage(table).c_str(), stderr);
    return 2;
  }
  if (options.incremental && options.history_path.empty()) {
    std::fprintf(stderr, "valuecheck: --incremental requires --history (a commit sequence)\n");
    return 2;
  }
  if (!options.cache_dir.empty() && !options.incremental) {
    std::fprintf(stderr, "valuecheck: --cache-dir only applies with --incremental\n");
    return 2;
  }
  // The flags that need the metrics registry; findings stay byte-identical.
  options.analysis.collect_metrics = options.metrics || !options.ledger_dir.empty() ||
                                     !options.perf_report_path.empty() ||
                                     !options.metrics_out_path.empty();
  return std::nullopt;
}

std::vector<std::pair<std::string, std::string>> CollectSources(
    const std::vector<std::string>& inputs) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& input : inputs) {
    std::filesystem::path path(input);
    if (std::filesystem::is_directory(path)) {
      std::vector<std::string> found;
      for (const auto& entry : std::filesystem::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && entry.path().extension() == ".c") {
          found.push_back(entry.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      for (const std::string& file : found) {
        files.emplace_back(file, ReadFileOrDie(file));
      }
    } else {
      files.emplace_back(input, ReadFileOrDie(input));
    }
  }
  return files;
}

void PrintText(const vc::AnalysisReport& report, const vc::Repository* repo, int top,
               bool ranked) {
  using namespace vc;
  std::printf("valuecheck: %d unused definition(s)", static_cast<int>(report.findings.size()));
  if (report.prune_stats.TotalPruned() > 0) {
    std::printf(" (%d pruned: %d config, %d cursor, %d hints, %d peer, %d stale)",
                report.prune_stats.TotalPruned(), report.prune_stats.config_dependency,
                report.prune_stats.cursor, report.prune_stats.unused_hints,
                report.prune_stats.peer_definition, report.prune_stats.stale_code);
  }
  std::printf("\n");
  int shown = 0;
  for (const UnusedDefCandidate& cand : report.findings) {
    if (top >= 0 && shown >= top) {
      std::printf("... %d more (raise --top)\n",
                  static_cast<int>(report.findings.size()) - shown);
      break;
    }
    ++shown;
    std::printf("%s:%d: warning: ", cand.file.c_str(), cand.def_loc.line);
    switch (cand.kind) {
      case CandidateKind::kOverwrittenDef:
        std::printf("value of '%s' is overwritten before use", cand.slot_name.c_str());
        break;
      case CandidateKind::kUnusedRetVal:
        std::printf("return value%s is never used",
                    !cand.callee_name.empty()
                        ? (" of '" + cand.callee_name + "'").c_str()
                        : "");
        break;
      case CandidateKind::kUnusedParam:
        std::printf("parameter '%s' value is never used", cand.slot_name.c_str());
        break;
      case CandidateKind::kOverwrittenParam:
        std::printf("parameter '%s' is overwritten before use", cand.slot_name.c_str());
        break;
      case CandidateKind::kPlainUnused:
        if (cand.overwritten) {
          std::printf("value of '%s' is overwritten before use", cand.slot_name.c_str());
        } else {
          std::printf("value of '%s' is never used", cand.slot_name.c_str());
        }
        break;
      case CandidateKind::kDoubleOverwrite:
        std::printf("store to '%s' is overwritten before any read", cand.slot_name.c_str());
        break;
      case CandidateKind::kDeadGlobalStore:
        std::printf("store to global '%s' is overwritten before any read",
                    cand.slot_name.c_str());
        break;
      case CandidateKind::kOutParamUnused:
        std::printf("out-parameter '%s' is filled by a call but never read",
                    cand.slot_name.c_str());
        break;
      case CandidateKind::kStaleCopy:
        std::printf("copy '%s' is read after its source was modified", cand.slot_name.c_str());
        break;
    }
    std::printf(" [in %s]", cand.function.c_str());
    if (repo != nullptr && cand.responsible_author != kInvalidAuthor && ranked) {
      std::printf(" (introduced by %s, familiarity %.2f)",
                  repo->GetAuthor(cand.responsible_author).name.c_str(), cand.familiarity);
    }
    std::printf("\n");
  }
}

// Non-default analysis options, rendered into the ledger record so a run's
// provenance is reconstructible from history alone.
std::string SummarizeOptions(const CliOptions& options, bool has_history) {
  std::vector<std::string> parts;
  if (!has_history) {
    parts.push_back("no-history");
  }
  if (options.all_scopes) {
    parts.push_back("all-scopes");
  }
  const vc::PruneOptions& prune = options.analysis.prune;
  if (!prune.config_dependency) {
    parts.push_back("no-prune-config");
  }
  if (!prune.cursor) {
    parts.push_back("no-prune-cursor");
  }
  if (!prune.unused_hints) {
    parts.push_back("no-prune-hints");
  }
  if (!prune.peer_definition) {
    parts.push_back("no-prune-peer");
  }
  if (prune.stale_code) {
    parts.push_back("stale-code");
  }
  if (options.analysis.ranking.use_ea_model) {
    parts.push_back("ea-model");
  }
  if (!options.analysis.checkers.empty()) {
    parts.push_back("checkers=" + vc::Join(options.analysis.checkers, ","));
  }
  if (options.analysis.fault.enabled()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "fault-inject=%llu:%g",
                  static_cast<unsigned long long>(options.analysis.fault.seed()),
                  options.analysis.fault.rate());
    parts.push_back(buf);
  }
  if (options.strict) {
    parts.push_back("strict");
  }
  return vc::Join(parts, " ");
}

int RunAnalyze(const std::vector<std::string>& args) {
  using namespace vc;
  CliOptions options;
  if (std::optional<int> done = ParseAnalyzeArgs(args, options)) {
    return *done;
  }
  // First SIGINT/SIGTERM requests a graceful stop: the run finishes its
  // current unit of work (the current commit in --incremental replays, the
  // whole run otherwise), every artifact epilogue below still executes, and
  // the exit status is the conventional 128+signal.
  InstallGracefulShutdown();

  for (const std::string* path : {&options.trace_path, &options.profile_path,
                                  &options.perf_report_path, &options.metrics_out_path}) {
    if (!path->empty() && !EnsureOutputDir(*path)) {
      return 2;
    }
  }
  // The collapsed-stack profile and the perf report are derived from the
  // same spans as --trace, so each alone also turns the collector on. The
  // flags that need the metrics registry set collect_metrics, and the run
  // turns the registry on when it starts.
  if (!options.trace_path.empty() || !options.profile_path.empty() ||
      !options.perf_report_path.empty()) {
    TraceCollector::Global().Enable();
  }
  if (!options.events_path.empty()) {
    if (!EnsureOutputDir(options.events_path) ||
        !RunEventLog::Global().Open(options.events_path)) {
      std::fprintf(stderr, "valuecheck: cannot write events to %s\n",
                   options.events_path.c_str());
      return 2;
    }
    RunEvent("run_start")
        .Str("mode", options.history_path.empty() ? "sources" : "history")
        .Num("jobs", static_cast<int64_t>(options.analysis.jobs))
        .Emit();
  }
  if (options.progress) {
    ProgressMeter::Global().Start(stderr);
  }

  Repository repo;
  bool has_history = !options.history_path.empty();
  if (has_history) {
    std::string error;
    std::optional<Repository> loaded =
        LoadHistory(ReadFileOrDie(options.history_path), &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "valuecheck: %s: %s\n", options.history_path.c_str(),
                   error.c_str());
      return 2;
    }
    repo = std::move(*loaded);
  } else {
    // No authorship: fall back to reporting all scopes, unranked.
    options.analysis.cross_scope_only = false;
    options.analysis.ranking.enabled = false;
  }
  if (options.all_scopes) {
    options.analysis.cross_scope_only = false;
  }

  Analysis analysis(options.analysis);
  AnalysisReport report;
  std::optional<IncrementalResult> inc_head;
  if (options.incremental) {
    // Replay the whole history commit-by-commit through one warm engine.
    // Each commit's report is complete (equal to a full run truncated at that
    // commit); stdout carries the head commit's report through the normal
    // formatting path, stderr the per-commit work accounting.
    if (repo.NumCommits() == 0) {
      std::fprintf(stderr, "valuecheck: --incremental: history has no commits\n");
      return 2;
    }
    IncrementalOptions inc_options;
    inc_options.cache_dir = options.cache_dir;
    IncrementalEngine engine(options.analysis, inc_options);
    std::string label = options.label.empty() ? options.history_path : options.label;
    for (CommitId commit = 0; commit < repo.NumCommits(); ++commit) {
      IncrementalResult result = engine.AnalyzeCommit(repo, commit);
      std::fprintf(stderr,
                   "valuecheck: commit %d/%d: reparsed %d of %d changed file(s), "
                   "%d/%d function(s) dirty, findings +%d -%d =%d, %.1f ms\n",
                   commit + 1, repo.NumCommits(), result.files_reparsed, result.files_changed,
                   result.functions_dirty, result.functions_total, result.findings_new,
                   result.findings_fixed, static_cast<int>(result.findings().size()),
                   result.seconds * 1000.0);
      // One ledger record per commit, so `history`/`report` can trend the
      // incremental run the same way CI trends full runs.
      if (!options.ledger_dir.empty()) {
        RunRecord record = MakeRunRecord(result.report,
                                         label + "@c" + std::to_string(commit), NowMs());
        record.options_summary = SummarizeOptions(options, has_history);
        FillIncrementalMetrics(result, record.metrics);
        std::string error;
        RunLedger ledger(options.ledger_dir);
        if (ledger.Append(std::move(record), &error).empty()) {
          std::fprintf(stderr, "valuecheck: ledger append failed: %s\n", error.c_str());
          return 2;
        }
      }
      bool last = commit + 1 == repo.NumCommits();
      inc_head = std::move(result);
      if (!last && ShutdownRequested()) {
        // Graceful stop between commits: report the last completed commit and
        // fall through to the normal artifact epilogues.
        std::fprintf(stderr,
                     "valuecheck: interrupted after commit %d/%d; flushing artifacts\n",
                     commit + 1, repo.NumCommits());
        break;
      }
    }
    const CacheStats& cache = inc_head->cache;
    std::fprintf(stderr,
                 "valuecheck: incremental replay: parse cache %llu hit / %llu miss; "
                 "detect cache %.1f%% hit (%llu carried, %llu recomputed); "
                 "disk cache %llu loaded, %llu stored, %llu corrupt\n",
                 static_cast<unsigned long long>(cache.parse_hits),
                 static_cast<unsigned long long>(cache.parse_misses),
                 cache.DetectHitRate() * 100.0,
                 static_cast<unsigned long long>(cache.detect_carried),
                 static_cast<unsigned long long>(cache.detect_recomputed),
                 static_cast<unsigned long long>(cache.disk_loads),
                 static_cast<unsigned long long>(cache.disk_stores),
                 static_cast<unsigned long long>(cache.disk_corrupt));
    report = inc_head->report;
  } else {
    // One run from before the source read: the report's wall clock and pool
    // delta cover the build, and the build is the run's parse stage.
    PipelineRun run(options.analysis.collect_metrics);
    Project project = has_history
                          ? analysis.BuildFromRepository(repo, &run)
                          : analysis.BuildFromSources(CollectSources(options.inputs), &run);
    if (project.diags().HasErrors()) {
      std::fputs(project.diags().Render(project.sources()).c_str(), stderr);
      return 2;
    }
    report = analysis.Run(project, has_history ? &repo : nullptr, &run);
  }

  // The heartbeat line ends (with a final render + newline) before anything
  // else is printed, so the report never interleaves with a redraw.
  if (options.progress) {
    ProgressMeter::Global().AddFindings(report.findings.size());
    ProgressMeter::Global().Stop();
  }
  if (RunEventsEnabled()) {
    RunEvent("run_end")
        .Num("findings", static_cast<uint64_t>(report.findings.size()))
        .Num("quarantined", static_cast<uint64_t>(report.quarantined.size()))
        .Flag("degraded", report.degraded)
        .Dbl("analysis_seconds", report.analysis_seconds)
        .Emit();
    RunEventLog::Global().Close();
  }

  // Quarantine summary on stderr (stdout is reserved for the report, which
  // carries the same data in the schema-v5 "quarantined" block).
  if (report.degraded) {
    std::fprintf(stderr, "valuecheck: degraded run: %zu unit(s) quarantined\n",
                 report.quarantined.size());
    for (const QuarantinedUnit& unit : report.quarantined) {
      std::string where = unit.path;
      if (!unit.function.empty()) {
        where += where.empty() ? unit.function : ":" + unit.function;
      }
      if (where.empty()) {
        where = "<stage>";
      }
      std::fprintf(stderr, "  quarantined [%s] %s: %s\n", unit.stage.c_str(), where.c_str(),
                   unit.reason.c_str());
    }
  }

  if (options.format == "json") {
    std::printf("%s\n", ReportToJson(report, has_history ? &repo : nullptr,
                                     inc_head.has_value() ? &*inc_head : nullptr)
                            .c_str());
  } else if (options.format == "sarif") {
    std::printf("%s\n", ReportToSarif(report).c_str());
  } else if (options.format == "csv") {
    std::fputs(report.ToCsv().c_str(), stdout);
  } else {
    PrintText(report, has_history ? &repo : nullptr, options.top,
              options.analysis.ranking.enabled);
  }

  // Perf analytics: post-process the span buffers before the ledger
  // epilogue so the summary columns can ride along in the run record.
  std::optional<PerfReport> perf;
  if (!options.perf_report_path.empty()) {
    TraceCollector& collector = TraceCollector::Global();
    collector.Disable();
    PerfInputs inputs;
    inputs.wall_seconds = report.analysis_seconds;
    inputs.jobs = report.jobs;
    inputs.hardware_threads = HardwareThreads();
    inputs.dropped_spans = collector.dropped_count();
    inputs.pool = &report.stage.pool;
    perf = AnalyzeSpans(collector.SnapshotEvents(), inputs);
    if (!WritePerfReport(*perf, options.perf_report_path)) {
      std::fprintf(stderr, "valuecheck: cannot write perf report to %s\n",
                   options.perf_report_path.c_str());
      return 2;
    }
    VC_LOG_INFO("wrote perf report to " + options.perf_report_path);
  }

  // Ledger epilogue: persist the run for later `diff`/`history`/`report`.
  // Incremental replays already appended one record per commit above.
  if (!options.ledger_dir.empty() && !options.incremental) {
    std::string label = options.label;
    if (label.empty()) {
      label = has_history ? options.history_path : Join(options.inputs, " ");
    }
    RunRecord record = MakeRunRecord(report, label, NowMs());
    record.options_summary = SummarizeOptions(options, has_history);
    if (perf.has_value()) {
      FillPerfMetrics(*perf, record.metrics);
    }
    std::string error;
    RunLedger ledger(options.ledger_dir);
    std::string run_id = ledger.Append(std::move(record), &error);
    if (run_id.empty()) {
      std::fprintf(stderr, "valuecheck: ledger append failed: %s\n", error.c_str());
      return 2;
    }
    VC_LOG_INFO("recorded run " + run_id + " in " + ledger.LedgerFile());
  }

  // Observability epilogue — all on stderr, so findings on stdout are
  // byte-identical with and without --metrics/--trace.
  if (options.metrics) {
    std::fputs("\n=== pipeline stage metrics ===\n", stderr);
    std::fputs(RenderStageMetricsTable(report).c_str(), stderr);
    std::fputs("\n=== metrics registry ===\n", stderr);
    std::fputs(MetricsRegistry::Global().RenderTable().c_str(), stderr);
  }
  if (!options.metrics_out_path.empty()) {
    std::ofstream prom(options.metrics_out_path, std::ios::trunc | std::ios::binary);
    prom << MetricsRegistry::Global().RenderPrometheus();
    prom.flush();
    if (!prom) {
      std::fprintf(stderr, "valuecheck: cannot write metrics to %s\n",
                   options.metrics_out_path.c_str());
      return 2;
    }
    VC_LOG_INFO("wrote Prometheus metrics to " + options.metrics_out_path);
  }
  if (!options.trace_path.empty() || !options.profile_path.empty()) {
    TraceCollector& collector = TraceCollector::Global();
    collector.Disable();
    if (!options.trace_path.empty() && !collector.WriteJson(options.trace_path)) {
      std::fprintf(stderr, "valuecheck: cannot write trace to %s\n",
                   options.trace_path.c_str());
      return 2;
    }
    if (!options.profile_path.empty() && !WriteCollapsedProfile(options.profile_path)) {
      std::fprintf(stderr, "valuecheck: cannot write profile to %s\n",
                   options.profile_path.c_str());
      return 2;
    }
    VC_LOG_INFO("wrote " + std::to_string(collector.EventCount()) + " trace event(s)");
  }
  if (ShutdownRequested()) {
    return 128 + ShutdownSignal();  // graceful stop — artifacts flushed above
  }
  if (options.strict && report.degraded) {
    return 3;  // quarantine is an error under --strict (see exit-code table)
  }
  return report.findings.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

struct ServeArgs {
  vc::ServerOptions server;
  std::string ledger_dir;
  std::string label = "serve";
  std::string metrics_out_path;
  std::string events_path;
};

vc::FlagTable ServeFlags(ServeArgs& out) {
  return {"valuecheck serve",
          "usage: valuecheck serve [--socket PATH | --port N] [options]\n\n",
          {
              {"--socket", "PATH", "listen on a Unix-domain socket (stale file replaced)",
               vc::StoreString(out.server.socket_path)},
              {"--port", "N",
               "listen on TCP loopback (0 = ephemeral; the resolved\n"
               "address is printed on stdout either way)",
               vc::StoreInt(out.server.tcp_port, 0)},
              {"--max-inflight", "N", "concurrently executing requests (default 2)",
               vc::StoreInt(out.server.max_inflight, 1)},
              {"--max-queue", "N",
               "queued requests beyond that before shedding with\n"
               "RETRY_AFTER (default 8)",
               vc::StoreInt(out.server.max_queue, 0)},
              {"--deadline-ms", "X",
               "default per-request deadline when a request carries\n"
               "none (0 = unlimited)",
               vc::StoreDouble(out.server.default_deadline_ms)},
              {"--idle-timeout", "SEC",
               "drop a connection idle mid-frame this long\n"
               "(slow-loris guard; default 30)",
               vc::StoreDouble(out.server.idle_read_timeout_seconds)},
              {"--jobs", "N", "worker lanes for requests that don't set jobs",
               vc::StoreInt(out.server.analysis.jobs, 0)},
              {"--ledger", "DIR",
               "append a serve-session record (request accounting,\n"
               "QPS, p50/p95/p99) to the run ledger on drain",
               vc::StoreString(out.ledger_dir)},
              {"--label", "NAME", "ledger record label (default: serve)",
               vc::StoreString(out.label)},
              {"--metrics-out", "FILE",
               "dump the vc_serve_* metric family (Prometheus text\n"
               "format) after the drain",
               vc::StoreString(out.metrics_out_path)},
              {"--events", "FILE", "stream serve_start/serve_drain/serve_end run events",
               vc::StoreString(out.events_path)},
              {"--allow-debug-sleep", nullptr,
               "honor the request debug_sleep_ms field (tests only)",
               vc::SetBool(out.server.allow_debug_sleep)},
              LogLevelFlag(),
          },
          "The daemon drains on SIGINT/SIGTERM (or a client `shutdown` request):\n"
          "new work is shed, in-flight requests finish and respond, artifacts are\n"
          "flushed, and the exit status reports whether accounting balanced.\n"};
}

int RunServeCommand(const std::vector<std::string>& args) {
  using namespace vc;
  ServeArgs parsed;
  if (std::optional<int> done = ParseFlags(ServeFlags(parsed), args, nullptr)) {
    return *done;
  }
  if (!parsed.metrics_out_path.empty()) {
    if (!EnsureOutputDir(parsed.metrics_out_path)) {
      return 2;
    }
    MetricsRegistry::Global().Enable();
  }
  if (!parsed.events_path.empty()) {
    if (!EnsureOutputDir(parsed.events_path) ||
        !RunEventLog::Global().Open(parsed.events_path)) {
      std::fprintf(stderr, "valuecheck serve: cannot write events to %s\n",
                   parsed.events_path.c_str());
      return 2;
    }
  }
  // The ledger record wants exact request accounting either way; the registry
  // family additionally feeds --metrics-out and scrapes.
  MetricsRegistry::Global().Enable();

  InstallGracefulShutdown();
  AnalysisServer server(parsed.server);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "valuecheck serve: %s\n", error.c_str());
    return 2;
  }
  // The address line is the startup handshake for wrappers (check.sh waits
  // for it; TCP mode resolves the ephemeral port here).
  std::printf("valuecheck: serving on %s (max-inflight=%d, max-queue=%d)\n",
              server.address().c_str(), parsed.server.max_inflight,
              parsed.server.max_queue);
  std::fflush(stdout);

  // Park until a signal or a client `shutdown` request starts the drain.
  while (!ShutdownRequested() && !server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.RequestDrain();
  server.Wait();
  ServeTotals totals = server.totals();

  std::fprintf(stderr,
               "valuecheck serve: drained: %llu request(s) over %llu connection(s) "
               "in %.2fs — %llu ok, %llu degraded, %llu shed, %llu deadline, "
               "%llu failed (%llu protocol error(s)); %llu cached, %llu engine "
               "rebuild(s), %llu project(s); p50 %.1f ms, p99 %.1f ms\n",
               static_cast<unsigned long long>(totals.requests),
               static_cast<unsigned long long>(totals.connections),
               totals.wall_seconds, static_cast<unsigned long long>(totals.succeeded),
               static_cast<unsigned long long>(totals.degraded),
               static_cast<unsigned long long>(totals.shed),
               static_cast<unsigned long long>(totals.deadline),
               static_cast<unsigned long long>(totals.failed),
               static_cast<unsigned long long>(totals.protocol_errors),
               static_cast<unsigned long long>(totals.cached),
               static_cast<unsigned long long>(totals.engine_rebuilds),
               static_cast<unsigned long long>(totals.projects), totals.p50_ms,
               totals.p99_ms);

  bool balanced = totals.requests == totals.Accounted();
  if (!balanced) {
    std::fprintf(stderr,
                 "valuecheck serve: ACCOUNTING IMBALANCE: %llu request(s) but "
                 "outcomes sum to %llu\n",
                 static_cast<unsigned long long>(totals.requests),
                 static_cast<unsigned long long>(totals.Accounted()));
  }

  if (!parsed.ledger_dir.empty()) {
    RunRecord record;
    record.label = parsed.label;
    record.timestamp_ms = NowMs();
    record.jobs = parsed.server.analysis.jobs;
    record.options_summary =
        "serve max-inflight=" + std::to_string(parsed.server.max_inflight) +
        " max-queue=" + std::to_string(parsed.server.max_queue);
    record.metrics.serve_collected = true;
    record.metrics.serve_wall_seconds = totals.wall_seconds;
    record.metrics.serve_clients = static_cast<int64_t>(totals.connections);
    record.metrics.serve_requests = static_cast<int64_t>(totals.requests);
    record.metrics.serve_succeeded = static_cast<int64_t>(totals.succeeded);
    record.metrics.serve_degraded = static_cast<int64_t>(totals.degraded);
    record.metrics.serve_shed = static_cast<int64_t>(totals.shed);
    record.metrics.serve_deadline = static_cast<int64_t>(totals.deadline);
    record.metrics.serve_failed = static_cast<int64_t>(totals.failed);
    record.metrics.serve_qps = totals.wall_seconds > 0.0
                                   ? static_cast<double>(totals.requests) /
                                         totals.wall_seconds
                                   : 0.0;
    record.metrics.serve_p50_ms = totals.p50_ms;
    record.metrics.serve_p95_ms = totals.p95_ms;
    record.metrics.serve_p99_ms = totals.p99_ms;
    std::string append_error;
    RunLedger ledger(parsed.ledger_dir);
    std::string run_id = ledger.Append(std::move(record), &append_error);
    if (run_id.empty()) {
      std::fprintf(stderr, "valuecheck serve: ledger append failed: %s\n",
                   append_error.c_str());
      return 2;
    }
    VC_LOG_INFO("recorded serve session " + run_id + " in " + ledger.LedgerFile());
  }
  if (!parsed.metrics_out_path.empty()) {
    std::ofstream prom(parsed.metrics_out_path, std::ios::trunc | std::ios::binary);
    prom << MetricsRegistry::Global().RenderPrometheus();
    prom.flush();
    if (!prom) {
      std::fprintf(stderr, "valuecheck serve: cannot write metrics to %s\n",
                   parsed.metrics_out_path.c_str());
      return 2;
    }
  }
  if (RunEventsEnabled()) {
    RunEventLog::Global().Close();
  }
  return balanced ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Ledger subcommands: diff, history, report
// ---------------------------------------------------------------------------

// The --ledger row every ledger subcommand shares.
vc::FlagSpec LedgerFlag(std::string& dir) {
  return {"--ledger", "DIR", "run ledger directory (default .vc-ledger)", vc::StoreString(dir)};
}

int RunDiffCommand(const std::vector<std::string>& args) {
  using namespace vc;
  std::string ledger_dir = ".vc-ledger";
  bool check = false;
  bool timings = false;
  std::string format = "text";
  RegressionThresholds thresholds;
  const FlagTable flags = {
      "valuecheck diff",
      "usage: valuecheck diff [--ledger DIR] [runA runB] [options]\n"
      "\n"
      "Compares run A with run B (default: prev latest). Run selectors:\n"
      "latest, prev, rNNNN, N (1-based), -N (from newest).\n\n",
      {
          LedgerFlag(ledger_dir),
          {"--check", nullptr, "exit 1 on new findings or metric regressions", SetBool(check)},
          {"--timings", nullptr, "include (nondeterministic) stage-timing deltas",
           SetBool(timings)},
          {"--format", "FMT", "text (default) or json",
           [&format](const std::string& v) {
             if (v != "text" && v != "json") {
               return "unknown format '" + v + "' (expected text, json)";
             }
             format = v;
             return std::string();
           }},
          {"--max-new", "N", "allowed new findings before --check fails (default 0)",
           StoreInt(thresholds.max_new_findings, 0)},
          {"--stage-ratio", "X", "stage-seconds regression ratio (default 1.5)",
           StoreDouble(thresholds.stage_ratio)},
          {"--stage-floor", "SEC", "ignore stage growth below this many seconds (default 0.05)",
           StoreDouble(thresholds.stage_floor_seconds)},
          {"--prune-drop", "X", "allowed absolute prune-rate drop (default 0.10)",
           StoreDouble(thresholds.prune_rate_drop)},
      }};
  std::vector<std::string> selectors;
  if (std::optional<int> done = ParseFlags(flags, args, &selectors)) {
    return *done;
  }
  if (selectors.size() != 0 && selectors.size() != 2) {
    std::fprintf(stderr, "valuecheck diff: expected zero or two run selectors, got %zu\n",
                 selectors.size());
    return 2;
  }
  std::string sel_a = selectors.empty() ? "prev" : selectors[0];
  std::string sel_b = selectors.empty() ? "latest" : selectors[1];

  RunLedger ledger(ledger_dir);
  std::string error;
  std::optional<RunRecord> run_a = ledger.Find(sel_a, &error);
  if (!run_a.has_value()) {
    std::fprintf(stderr, "valuecheck diff: %s\n", error.c_str());
    return 2;
  }
  std::optional<RunRecord> run_b = ledger.Find(sel_b, &error);
  if (!run_b.has_value()) {
    std::fprintf(stderr, "valuecheck diff: %s\n", error.c_str());
    return 2;
  }

  RunDiff diff = ComputeRunDiff(*run_a, *run_b, thresholds);
  if (format == "json") {
    std::printf("%s\n", DiffToJson(diff).c_str());
  } else {
    std::fputs(RenderDiffText(diff, timings).c_str(), stdout);
  }
  if (check) {
    if (diff.HasRegressions()) {
      std::printf("check: FAILED (%zu regression(s))\n", diff.regressions.size());
      return 1;
    }
    std::printf("check: PASSED\n");
  }
  return 0;
}

int RunHistoryCommand(const std::vector<std::string>& args) {
  using namespace vc;
  std::string ledger_dir = ".vc-ledger";
  int limit = -1;
  int compact = -1;
  const FlagTable flags = {
      "valuecheck history",
      "usage: valuecheck history [--ledger DIR] [--limit N] [--compact N]\n\n",
      {
          LedgerFlag(ledger_dir),
          {"--limit", "N", "show only the newest N runs", StoreInt(limit, 0)},
          {"--compact", "N", "drop all but the newest N runs from the ledger first",
           StoreInt(compact, 0)},
      }};
  if (std::optional<int> done = ParseFlags(flags, args, nullptr)) {
    return *done;
  }
  RunLedger ledger(ledger_dir);
  std::string error;
  if (compact >= 0) {
    int dropped = ledger.Compact(compact, &error);
    if (dropped < 0) {
      std::fprintf(stderr, "valuecheck history: compact failed: %s\n", error.c_str());
      return 2;
    }
    std::printf("compacted: dropped %d run(s), kept newest %d\n", dropped, compact);
  }
  int skipped = 0;
  std::optional<std::vector<RunRecord>> runs = ledger.Load(&error, &skipped);
  if (!runs.has_value()) {
    std::fprintf(stderr, "valuecheck history: %s\n", error.c_str());
    return 2;
  }
  if (skipped > 0) {
    std::fprintf(stderr, "valuecheck history: skipped %d unparsable ledger line(s)\n", skipped);
  }
  if (runs->empty()) {
    std::printf("ledger %s: no runs recorded\n", ledger.LedgerFile().c_str());
    return 0;
  }
  TableWriter table({"run", "timestamp (UTC)", "label", "jobs", "findings", "analysis_s",
                     "options"});
  size_t first = 0;
  if (limit >= 0 && runs->size() > static_cast<size_t>(limit)) {
    first = runs->size() - static_cast<size_t>(limit);
  }
  for (size_t i = first; i < runs->size(); ++i) {
    const RunRecord& run = (*runs)[i];
    table.AddRow({run.run_id, FormatTimestamp(run.timestamp_ms), run.label,
                  std::to_string(run.jobs), std::to_string(run.findings.size()),
                  FormatDouble(run.metrics.analysis_seconds, 3), run.options_summary});
  }
  std::fputs(table.RenderText().c_str(), stdout);
  return 0;
}

int RunReportCommand(const std::vector<std::string>& args) {
  using namespace vc;
  std::string ledger_dir = ".vc-ledger";
  std::string html_path;
  const FlagTable flags = {
      "valuecheck report",
      "usage: valuecheck report [--ledger DIR] --html FILE\n\n",
      {
          LedgerFlag(ledger_dir),
          {"--html", "FILE",
           "write the self-contained HTML dashboard (findings, deltas,\n"
           "trend sparklines) to FILE",
           StoreString(html_path)},
      }};
  // Positionals are accepted and ignored, as they always were.
  std::vector<std::string> ignored;
  if (std::optional<int> done = ParseFlags(flags, args, &ignored)) {
    return *done;
  }
  if (html_path.empty()) {
    std::fprintf(stderr, "valuecheck report: --html FILE is required\n");
    return 2;
  }
  RunLedger ledger(ledger_dir);
  std::string error;
  std::optional<std::vector<RunRecord>> runs = ledger.Load(&error);
  if (!runs.has_value()) {
    std::fprintf(stderr, "valuecheck report: %s\n", error.c_str());
    return 2;
  }
  if (!EnsureOutputDir(html_path)) {
    return 2;
  }
  std::ofstream out(html_path, std::ios::trunc | std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "valuecheck report: cannot write %s\n", html_path.c_str());
    return 2;
  }
  out << RenderHtmlDashboard(*runs);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "valuecheck report: write to %s failed\n", html_path.c_str());
    return 2;
  }
  std::printf("wrote dashboard for %zu run(s) to %s\n", runs->size(), html_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string subcommand = "analyze";
  if (!args.empty() &&
      (args[0] == "analyze" || args[0] == "diff" || args[0] == "history" ||
       args[0] == "report" || args[0] == "serve")) {
    subcommand = args[0];
    args.erase(args.begin());
  }
  if (subcommand == "serve") {
    return RunServeCommand(args);
  }
  if (subcommand == "diff") {
    return RunDiffCommand(args);
  }
  if (subcommand == "history") {
    return RunHistoryCommand(args);
  }
  if (subcommand == "report") {
    return RunReportCommand(args);
  }
  return RunAnalyze(args);
}
