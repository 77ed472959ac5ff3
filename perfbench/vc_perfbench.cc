// vc_perfbench: the compiled half of the ValueCheck benchmark. run.py drives
// it; every subcommand prints one JSON object on stdout.
//
//   gen-history --seed S --scale X --out DIR
//       Synthesizes the four calibrated paper applications (profile.h),
//       scaled by X and re-seeded from S, as DIR/<app>.vchist plus
//       DIR/<app>.expected: the ground-truth sites the detector must report
//       (expect_cross_scope && !expect_pruned), one
//       "file<TAB>line<TAB>alt_line<TAB>is_real_bug" row each.
//
//   trace --mode batch|history|serve --jobs N --seed S --csv-out FILE INPUT...
//       The traced pass. Calls each layer's public entry point in the order
//       `valuecheck analyze` runs them, timing every call from outside, then
//       re-runs the front end and the per-function analyses serially to
//       split their time by layer, then drives the daemon's layers
//       (protocol, ProjectHost) in-process over the same sources. INPUT is a
//       source directory (batch, serve) or .vchist files (history). The
//       pipeline's CSV goes to FILE, so run.py can check it against the
//       CLI's.
//
//   serve-client --socket PATH --seed S --jobs N [--cold] [--closed SEC]
//                [--open RATE:COUNT,...] WAREHOUSE...
//       A socket client of `valuecheck serve`. --cold analyzes each
//       warehouse's pristine snapshot; --closed sends one seeded one-file
//       edit at a time, alternating --jobs N and 1; --open sends, for each
//       RATE, COUNT requests as an open-loop Poisson stream (80% edits, 20%
//       report/diff queries) over N connections, timing each request from
//       its scheduled send time. Every --cold response and a seeded sample
//       of --closed responses are checked against an in-process batch run
//       over the same snapshot.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "src/checkers/checker_context.h"
#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/core/analysis.h"
#include "src/core/authorship.h"
#include "src/core/fingerprint.h"
#include "src/core/project.h"
#include "src/core/pruning.h"
#include "src/core/ranking.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/ir/ir_builder.h"
#include "src/lexer/lexer.h"
#include "src/lexer/preprocessor.h"
#include "src/parser/parser.h"
#include "src/server/client.h"
#include "src/server/project_host.h"
#include "src/server/protocol.h"
#include "src/server/request.h"
#include "src/support/json_reader.h"
#include "src/support/json_writer.h"
#include "src/support/memstats.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/vcs/history_io.h"

namespace {

using Sources = std::vector<std::pair<std::string, std::string>>;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "vc_perfbench: %s\n", message.c_str());
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Die("cannot read " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    Die("cannot write " + path);
  }
}

// Same file set and order as `valuecheck analyze DIR`.
Sources CollectSources(const std::string& dir) {
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".c") {
      found.push_back(entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  Sources files;
  for (const std::string& path : found) {
    files.emplace_back(path, ReadFile(path));
  }
  return files;
}

uint64_t SourceBytes(const Sources& sources) {
  uint64_t bytes = 0;
  for (const auto& [path, content] : sources) {
    bytes += path.size() + content.size();
  }
  return bytes;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

// Full precision: JsonWriter::Double keeps six significant digits.
std::string Exact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// ---------------------------------------------------------------------------
// Spans around layer calls. A layer's self time is its span minus the time
// its child spans cover; self times summed over every layer equal the time
// the top-level spans cover, and the rest of the pass's wall is unattributed.

class Tracer {
 public:
  Tracer() : start_(Clock::now()) {}

  void Begin(const std::string& layer) { open_.push_back({layer, Clock::now(), 0.0}); }

  // Closes the innermost span and returns its duration in seconds.
  double End() {
    Open span = open_.back();
    open_.pop_back();
    const double seconds = Since(span.start);
    self_[span.layer] += seconds - span.children;
    if (open_.empty()) {
      covered_ += seconds;
    } else {
      open_.back().children += seconds;
    }
    return seconds;
  }

  double Wall() const { return Since(start_); }
  double Covered() const { return covered_; }
  bool Balanced() const { return open_.empty(); }
  const std::map<std::string, double>& self() const { return self_; }

 private:
  struct Open {
    std::string layer;
    Clock::time_point start;
    double children;
  };
  Clock::time_point start_;
  std::vector<Open> open_;
  std::map<std::string, double> self_;
  double covered_ = 0.0;
};

using Metrics = std::map<std::string, double>;

// Thread-pool accounting for parallel calls: busy lane time against the
// lane time the calls had (their wall times the lanes they ran on). Idle is
// the difference, so it counts only time inside the calls.
struct PoolWindow {
  double busy = 0.0;
  double capacity = 0.0;
  double steals = 0.0;

  void Add(const vc::ThreadPoolStats& before, const vc::ThreadPoolStats& after,
           double seconds, int lanes) {
    vc::ThreadPoolStats delta = after.Delta(before);
    for (const auto& worker : delta.per_worker) {
      busy += worker.busy_seconds;
    }
    capacity += seconds * lanes;
    steals += static_cast<double>(delta.steals);
  }
};

// ---------------------------------------------------------------------------
// Seeded one-file edits. Each edit is applied to the pristine snapshot, so a
// warehouse never grows: the daemon sees the previously edited file revert
// and one new file change. The appended function holds an unused definition
// (`y`), so every edit changes the findings.

uint64_t Mix(uint64_t a, uint64_t b) {
  vc::Rng rng(a * 0x100000001b3ULL ^ b);
  return rng.Next();
}

Sources ApplyEdit(const Sources& pristine, uint64_t seed, uint64_t k) {
  Sources edited = pristine;
  const size_t index = Mix(seed, k) % edited.size();
  const std::string fn = "pb_edit_" + std::to_string(k);
  edited[index].second += "\nint " + fn + "(int a) {\n  int x;\n  x = a + " +
                          std::to_string(k % 97) + ";\n  int y;\n  y = x * 2;\n" +
                          "  return x;\n}\n";
  return edited;
}

std::string AnalyzeRequest(const std::string& id, const std::string& project,
                           const Sources& sources, int jobs) {
  vc::JsonWriter json;
  json.BeginObject();
  json.String("id", id);
  json.String("method", "analyze");
  json.String("project", project);
  json.Key("sources").BeginArray();
  for (const auto& [path, content] : sources) {
    json.BeginObject();
    json.String("path", path);
    json.String("content", content);
    json.EndObject();
  }
  json.EndArray();
  json.Int("jobs", jobs);
  json.EndObject();
  return json.str();
}

std::string QueryRequest(const std::string& id, const char* method, const std::string& project) {
  vc::JsonWriter json;
  json.BeginObject();
  json.String("id", id);
  json.String("method", method);
  json.String("project", project);
  json.EndObject();
  return json.str();
}

// The options `valuecheck serve` analyzes a request's snapshot with (its
// batch sources-mode shape; see AnalysisServer::OptionsFor).
vc::AnalysisOptions ServeOptions(int jobs) {
  vc::AnalysisOptions options;
  options.cross_scope_only = false;
  options.ranking.enabled = false;
  options.authorship = false;
  options.jobs = jobs;
  return options;
}

// The reference a daemon response must equal byte for byte.
std::string BatchCsv(const Sources& sources, int jobs) {
  return vc::Analysis(ServeOptions(jobs)).RunOnSources(sources).ToCsv();
}

// ---------------------------------------------------------------------------
// gen-history

int GenHistory(uint64_t seed, double scale, const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  vc::JsonWriter json;
  json.BeginObject();
  json.Key("apps").BeginArray();
  for (vc::ProjectProfile profile : vc::AllProfiles()) {
    profile = profile.Scaled(scale);
    profile.seed = Mix(profile.seed, seed);
    vc::GeneratedApp app = vc::GenerateApp(profile);
    std::string name = app.name;
    for (char& c : name) {
      c = c == ' ' ? '-' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const std::string base = out_dir + "/" + name;
    WriteFile(base + ".vchist", vc::SaveHistory(app.repo));
    std::string expected;
    int sites = 0;
    int real = 0;
    for (const vc::GtSite& site : app.truth.sites()) {
      if (site.expect_cross_scope && !site.expect_pruned) {
        expected += site.file + "\t" + std::to_string(site.line) + "\t" +
                    std::to_string(site.alt_line) + "\t" + (site.is_real_bug ? "1" : "0") +
                    "\n";
        ++sites;
        real += site.is_real_bug ? 1 : 0;
      }
    }
    WriteFile(base + ".expected", expected);
    json.BeginObject();
    json.String("name", name);
    json.Int("commits", app.repo.NumCommits());
    json.Int("files", static_cast<int64_t>(app.repo.ListFiles().size()));
    json.Int("expected_sites", sites);
    json.Int("expected_real", real);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace

struct TraceTotals {
  PoolWindow pool;
  double ast_mb = 0.0;
  double ir_mb = 0.0;
  double rss_after_build = 0.0;
  double rss_after_detect = 0.0;
};

// The serial front-end split: per file, the lexer (preprocess + lex), the
// parser and the IR lowering. ParseFile preprocesses and lexes again before
// parsing, so the parser's share is its call minus the lexer time just
// measured on the same file.
void FrontEndSplit(Tracer& tracer, Metrics& m, const vc::Project& project,
                   const vc::Config& config) {
  const vc::SourceManager& sm = project.sources();
  for (size_t i : project.unit_order()) {
    const vc::FileId file = static_cast<vc::FileId>(i);
    vc::DiagnosticEngine diags;
    tracer.Begin("lexer");
    vc::PreprocessResult pp = vc::Preprocess(sm.Content(file), config);
    std::vector<vc::Token> tokens = vc::Lex(sm, file, pp, diags);
    const double lex_seconds = tracer.End();
    m["lexer.tokens"] += static_cast<double>(tokens.size());
    tracer.Begin("parser");
    vc::TranslationUnit unit = vc::ParseFile(sm, file, config, diags);
    const double parse_seconds = tracer.End();
    m["parser.s"] += std::max(0.0, parse_seconds - lex_seconds);
    tracer.Begin("ir.lower");
    std::unique_ptr<vc::IrModule> module = vc::LowerUnit(unit);
    m["ir.lower.s"] += tracer.End();
    for (const auto& fn : module->functions) {
      for (const auto& block : fn->blocks) {
        m["ir.instructions"] += static_cast<double>(block->insts.size());
      }
    }
    m["lexer.s"] += lex_seconds;
  }
}

// The serial per-function split of detection's shared substrate.
void DataflowSplit(Tracer& tracer, Metrics& m, const vc::Project& project) {
  for (size_t i : project.unit_order()) {
    const vc::FileId file = static_cast<vc::FileId>(i);
    for (const auto& fn : project.modules()[i]->functions) {
      vc::CheckerContext ctx(project, file, *fn);
      tracer.Begin("dataflow.liveness");
      ctx.liveness();
      m["dataflow.liveness.s"] += tracer.End();
      tracer.Begin("dataflow.define_sets");
      ctx.defines();
      m["dataflow.define_sets.s"] += tracer.End();
      tracer.Begin("pointer.points_to");
      ctx.points_to();
      m["pointer.points_to.s"] += tracer.End();
    }
  }
}

void AddPruneStats(Metrics& m, const vc::PruneStats& s) {
  m["prune.config.pruned"] += s.config_dependency;
  m["prune.config.tested"] += s.config_tested;
  m["prune.cursor.pruned"] += s.cursor;
  m["prune.cursor.tested"] += s.cursor_tested;
  m["prune.hints.pruned"] += s.unused_hints;
  m["prune.hints.tested"] += s.hints_tested;
  m["prune.peer.pruned"] += s.peer_definition;
  m["prune.peer.tested"] += s.peer_tested;
}

// One `valuecheck analyze` pipeline: `vchist` empty means sources mode over
// `dir`. Mirrors tools/valuecheck_main.cc and Analysis::Run stage by stage.
// Appends the CSV the CLI would print to `csv_out`. Returns the sources the
// pipeline analyzed (the head snapshot in history mode).
Sources TracePipeline(Tracer& tracer, Metrics& m, TraceTotals& totals, const std::string& dir,
                      const std::string& vchist, int jobs, std::string& csv_out) {
  using namespace vc;
  AnalysisOptions options;
  options.jobs = jobs;
  const int lanes = ResolveJobs(jobs);
  auto project = std::make_unique<Project>();
  std::optional<Repository> repo;
  Sources sources;

  if (vchist.empty()) {
    // Sources mode: no history, so the vcs layer does no work.
    m["vcs.load_history.s"] += 0.0;
    m["vcs.commits"] += 0.0;
    options.cross_scope_only = false;
    options.ranking.enabled = false;
    tracer.Begin("read");
    sources = CollectSources(dir);
    m["read.s"] += tracer.End();
    m["read.mb"] += static_cast<double>(SourceBytes(sources)) / 1e6;
  } else {
    tracer.Begin("read");
    std::string text = ReadFile(vchist);
    m["read.s"] += tracer.End();
    m["read.mb"] += static_cast<double>(text.size()) / 1e6;
    tracer.Begin("vcs.load_history");
    std::string error;
    repo = LoadHistory(text, &error);
    m["vcs.load_history.s"] += tracer.End();
    if (!repo.has_value()) {
      Die(vchist + ": " + error);
    }
    m["vcs.commits"] += repo->NumCommits();
  }

  {
    ThreadPoolStats before = ThreadPool::Global().stats();
    tracer.Begin("project.build");
    *project = repo.has_value()
                   ? Project::FromRepository(*repo, options.config, options.jobs, &options.fault,
                                             &options.budget)
                   : Project::FromSources(sources, options.config, options.jobs, &options.fault,
                                          &options.budget);
    const double seconds = tracer.End();
    m["project.build.s"] += seconds;
    totals.pool.Add(before, ThreadPool::Global().stats(), seconds, lanes);
  }
  if (project->diags().HasErrors()) {
    Die("front-end errors in " + (vchist.empty() ? dir : vchist));
  }
  totals.rss_after_build = std::max(totals.rss_after_build, CurrentRssMb());
  Project::FileMemory parse_mem = project->ParseMemoryTotal();
  totals.ast_mb += static_cast<double>(parse_mem.ast.bytes) / 1e6;
  totals.ir_mb += static_cast<double>(parse_mem.ir.bytes) / 1e6;
  m["ast.nodes"] += static_cast<double>(parse_mem.ast.objects);

  std::vector<const Checker*> checkers = CheckerRegistry::Global().Resolve(options.checkers);
  CheckerRunResult detect;
  {
    ThreadPoolStats before = ThreadPool::Global().stats();
    tracer.Begin("checkers.detect");
    detect = RunCheckers(*project, checkers, options.traits, options.jobs, &options.budget,
                         &options.fault, /*isolate=*/true);
    const double seconds = tracer.End();
    m["checkers.detect.s"] += seconds;
    totals.pool.Add(before, ThreadPool::Global().stats(), seconds, lanes);
  }
  totals.rss_after_detect = std::max(totals.rss_after_detect, CurrentRssMb());
  for (size_t i : project->unit_order()) {
    m["checkers.functions"] += static_cast<double>(project->modules()[i]->functions.size());
  }
  m["checkers.candidates"] += static_cast<double>(detect.candidates.size());
  for (const CheckerRunResult::PerChecker& pc : detect.per_checker) {
    m["checkers." + pc.name + ".candidates"] += static_cast<double>(pc.candidates);
  }
  std::vector<UnusedDefCandidate> candidates = std::move(detect.candidates);
  const Repository* repo_ptr = repo.has_value() ? &*repo : nullptr;

  tracer.Begin("core.authorship");
  AuthorshipAnalyzer(*project, repo_ptr).ClassifyAll(candidates);
  m["core.authorship.s"] += tracer.End();

  // The filter stage includes the raw-candidate copy Analysis::Run keeps
  // for the report.
  tracer.Begin("core.filter");
  std::vector<UnusedDefCandidate> raw_candidates = candidates;
  std::vector<UnusedDefCandidate> pool;
  int dropped = 0;
  for (const UnusedDefCandidate& cand : candidates) {
    if (options.cross_scope_only && !cand.cross_scope) {
      ++dropped;
      continue;
    }
    pool.push_back(cand);
  }
  m["core.filter.s"] += tracer.End();
  m["core.filter.kept"] += static_cast<double>(pool.size());
  m["core.filter.dropped"] += dropped;

  tracer.Begin("core.prune");
  PruneStats prune_stats = RunPruning(*project, pool, options.prune, &candidates, repo_ptr);
  AnalysisReport report;
  for (const UnusedDefCandidate& cand : pool) {
    if (cand.pruned_by == PruneReason::kNone) {
      report.findings.push_back(cand);
    }
  }
  m["core.prune.s"] += tracer.End();
  AddPruneStats(m, prune_stats);

  tracer.Begin("core.rank");
  RankStats rank_stats;
  RankCandidates(report.findings, repo_ptr, options.ranking, &rank_stats);
  m["core.rank.s"] += tracer.End();
  m["rank.scored"] += static_cast<double>(rank_stats.scored);

  tracer.Begin("core.fingerprint");
  AssignFingerprints(report.findings);
  m["core.fingerprint.s"] += tracer.End();

  tracer.Begin("core.emit");
  const std::string csv = report.ToCsv();
  csv_out += csv;
  m["core.emit.s"] += tracer.End();
  m["core.emit.mb"] += static_cast<double>(csv.size()) / 1e6;

  // Attribution passes: serial re-runs of work project.build and
  // checkers.detect did in parallel.
  FrontEndSplit(tracer, m, *project, options.config);
  DataflowSplit(tracer, m, *project);

  if (repo.has_value()) {
    for (const std::string& path : repo->ListFiles()) {
      sources.emplace_back(path, repo->Head(path).value());
    }
  }

  tracer.Begin("teardown");
  report = AnalysisReport();
  pool = {};
  raw_candidates = {};
  candidates = {};
  detect = CheckerRunResult();
  project.reset();
  repo.reset();
  m["teardown.s"] += tracer.End();
  return sources;
}

// The daemon's layers in-process: a client's request encoding, the daemon's
// frame decoding and request parsing, ProjectHost::Analyze cold and then
// under seeded one-file edits, and the response encoding.
void TraceServeLayers(Tracer& tracer, Metrics& m, const Sources& sources, int jobs,
                      uint64_t seed, int edits) {
  using namespace vc;
  ProjectHost host("perfbench", AnalysisOptions());
  const AnalysisOptions options = ServeOptions(jobs);
  std::vector<double> encode_ms;
  std::vector<double> decode_ms;
  std::vector<double> warm_ms;
  std::vector<double> files_changed;
  std::vector<double> functions_dirty;
  double cold_ms = 0.0;
  int cached = 0;
  for (int k = 0; k <= edits; ++k) {
    // The benchmark's own work (making the edited snapshot, dropping the
    // previous one) is a span of its own, so it is not left unattributed.
    tracer.Begin("harness");
    Sources snapshot = k == 0 ? sources : ApplyEdit(sources, seed, static_cast<uint64_t>(k));
    tracer.End();
    tracer.Begin("protocol.encode");
    std::string frame = EncodeFrame(AnalyzeRequest("r" + std::to_string(k), "perfbench",
                                                   snapshot, jobs));
    double encode = tracer.End();
    tracer.Begin("protocol.decode");
    FrameDecoder decoder;
    decoder.Feed(frame);
    std::string payload;
    if (!decoder.Pop(&payload)) {
      Die("frame did not decode");
    }
    ServeRequest request;
    std::string error;
    if (!ParseServeRequest(payload, &request, &error)) {
      Die("request did not parse: " + error);
    }
    decode_ms.push_back(tracer.End() * 1e3);
    tracer.Begin("host.analyze");
    ProjectAnalyzeOutcome outcome = host.Analyze(request.sources, options);
    const double analyze_ms = tracer.End() * 1e3;
    tracer.Begin("protocol.encode");
    JsonWriter response;
    response.BeginObject();
    response.String("status", "ok");
    response.String("csv", outcome.report.ToCsv());
    response.EndObject();
    EncodeFrame(response.str());
    encode += tracer.End();
    encode_ms.push_back(encode * 1e3);
    cached += outcome.cached ? 1 : 0;
    if (k == 0) {
      cold_ms = analyze_ms;
    } else {
      warm_ms.push_back(analyze_ms);
      files_changed.push_back(outcome.files_changed);
      functions_dirty.push_back(outcome.functions_dirty);
    }
    tracer.Begin("harness");
    outcome = ProjectAnalyzeOutcome();
    request = ServeRequest();
    snapshot = Sources();
    frame = std::string();
    tracer.End();
  }
  m["protocol.encode.ms"] = Median(encode_ms);
  m["protocol.decode.ms"] = Median(decode_ms);
  m["host.analyze.ms"] = Median(warm_ms);
  m["host.cold.ms"] = cold_ms;
  m["host.files_changed"] = Median(files_changed);
  m["host.functions_dirty"] = Median(functions_dirty);
  m["host.cached"] = cached;
  m["host.edit_over_cold"] = cold_ms > 0.0 ? Median(warm_ms) / cold_ms : 0.0;
}

int Trace(const std::string& mode, int jobs, uint64_t seed, const std::string& csv_path,
          const std::vector<std::string>& inputs, int edits) {
  using namespace vc;
  // Tracing on: the library's own counters feed the pool and memory rows.
  MetricsRegistry::Global().Enable();
  MemoryTracker::Global().Enable();
  Metrics m;
  TraceTotals totals;
  std::string csv;
  Tracer tracer;
  Sources serve_sources;
  for (const std::string& input : inputs) {
    Sources analyzed = mode == "history"
                           ? TracePipeline(tracer, m, totals, "", input, jobs, csv)
                           : TracePipeline(tracer, m, totals, input, "", jobs, csv);
    if (serve_sources.empty()) {
      serve_sources = std::move(analyzed);
    }
  }
  const double pipeline_wall = tracer.Wall();
  TraceServeLayers(tracer, m, serve_sources, jobs, seed, edits);
  const double wall = tracer.Wall();
  WriteFile(csv_path, csv);

  m["mem.ast.mb"] = totals.ast_mb;
  m["mem.ir.mb"] = totals.ir_mb;
  m["mem.rss_after_build.mb"] = totals.rss_after_build;
  m["mem.rss_after_detect.mb"] = totals.rss_after_detect;
  m["pool.utilization"] = totals.pool.capacity > 0.0 ? totals.pool.busy / totals.pool.capacity
                                                     : 0.0;
  m["pool.steals"] = totals.pool.steals;
  m["pool.idle.s"] = std::max(0.0, totals.pool.capacity - totals.pool.busy);

  double self_sum = 0.0;
  for (const auto& [layer, seconds] : tracer.self()) {
    self_sum += seconds;
  }
  const double unattributed = wall - self_sum;
  // Reconciliation: every span closed, per-layer self times add up to the
  // time the top-level spans cover, and they fit inside the wall.
  const bool reconciled = tracer.Balanced() && std::abs(self_sum - tracer.Covered()) < 1e-6 &&
                          unattributed >= -1e-6;

  JsonWriter json;
  json.BeginObject();
  json.Raw("wall_s", Exact(wall));
  json.Raw("pipeline_wall_s", Exact(pipeline_wall));
  json.Raw("unattributed_s", Exact(unattributed));
  json.Bool("reconciled", reconciled);
  json.Key("self_s").BeginObject();
  for (const auto& [layer, seconds] : tracer.self()) {
    json.Raw(layer, Exact(seconds));
  }
  json.EndObject();
  json.Key("metrics").BeginObject();
  for (const auto& [name, value] : m) {
    json.Raw(name, Exact(value));
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return reconciled ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve-client

struct Warehouse {
  std::string name;
  Sources pristine;
};

struct Outcome {
  bool ok = false;
  std::string status;
  std::string csv;
};

Outcome ParseResponse(const std::string& text) {
  Outcome out;
  std::optional<vc::JsonValue> value = vc::ParseJson(text);
  if (!value.has_value() || !value->IsObject()) {
    out.status = "unparsable";
    return out;
  }
  out.status = value->GetString("status");
  out.ok = out.status == "ok";
  out.csv = value->GetString("csv");
  return out;
}

std::unique_ptr<vc::ServeClient> Connect(const std::string& socket) {
  std::string error;
  std::unique_ptr<vc::ServeClient> client = vc::ServeClient::ConnectUnix(socket, &error);
  if (client == nullptr) {
    Die("connect " + socket + ": " + error);
  }
  return client;
}

// Closed-loop responses checked against a batch run per client call.
constexpr size_t kVerifySamples = 8;

// An analyze response kept for the after-the-clock batch comparison.
struct Sample {
  Sources snapshot;
  bool ok = false;
  std::string csv;
  int jobs = 1;
};

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, int64_t> statuses;

  void Count(const Outcome& outcome) {
    ++attempted;
    failed += outcome.ok ? 0 : 1;
    ++statuses[outcome.status.empty() ? "transport" : outcome.status];
  }
};

void WriteSamples(vc::JsonWriter& json, const std::string& key, const std::vector<double>& v) {
  json.Key(key).BeginArray();
  for (double x : v) {
    json.RawValue(Exact(x));
  }
  json.EndArray();
}

struct OpenPhase {
  double rate = 0.0;
  int count = 0;
};

int ServeClientMain(const std::string& socket, uint64_t seed, int jobs, bool cold,
                    double closed_seconds, const std::vector<OpenPhase>& open_phases,
                    const std::vector<std::string>& dirs) {
  std::vector<Warehouse> warehouses;
  for (const std::string& dir : dirs) {
    warehouses.push_back({std::filesystem::path(dir).filename().string(), CollectSources(dir)});
  }
  Tally tally;
  std::vector<Sample> samples;
  vc::Rng pick(Mix(seed, 0x5e1ec7));
  vc::JsonWriter json;
  json.BeginObject();

  // Every request edit index is unique within a run, so no two requests
  // carry the same snapshot and none is answered from the host's replay.
  uint64_t next_edit = 1;
  // Latency ends when the response frame has arrived; parsing it is the
  // benchmark's own work.
  auto call = [&](vc::ServeClient& client, const std::string& request, double* ms) {
    std::string response;
    std::string error;
    const auto sent = Clock::now();
    const bool delivered = client.Call(request, &response, &error, 60.0);
    *ms = Since(sent) * 1e3;
    return delivered ? ParseResponse(response) : Outcome();
  };

  std::unique_ptr<vc::ServeClient> client = Connect(socket);
  if (cold) {
    std::vector<double> cold_ms;
    for (const Warehouse& w : warehouses) {
      const std::string request = AnalyzeRequest("cold-" + w.name, w.name, w.pristine, jobs);
      double ms = 0.0;
      Outcome outcome = call(*client, request, &ms);
      cold_ms.push_back(ms);
      tally.Count(outcome);
      samples.push_back({w.pristine, outcome.ok, outcome.csv, jobs});
    }
    WriteSamples(json, "cold_ms", cold_ms);
  }

  if (closed_seconds > 0.0) {
    std::vector<double> nproc_ms;
    std::vector<double> one_ms;
    std::vector<Sample> kept;
    const auto start = Clock::now();
    for (uint64_t i = 0; Since(start) < closed_seconds || one_ms.empty(); ++i) {
      const Warehouse& w = warehouses[i % warehouses.size()];
      const int request_jobs = i % 2 == 0 ? jobs : 1;
      const uint64_t edit = next_edit++;
      Sources snapshot = ApplyEdit(w.pristine, seed, edit);
      const std::string request =
          AnalyzeRequest("c" + std::to_string(edit), w.name, snapshot, request_jobs);
      double ms = 0.0;
      Outcome outcome = call(*client, request, &ms);
      (request_jobs == jobs ? nproc_ms : one_ms).push_back(ms);
      tally.Count(outcome);
      // Reservoir sample of the responses checked after the clock stops.
      if (kept.size() < kVerifySamples) {
        kept.push_back({std::move(snapshot), outcome.ok, outcome.csv, request_jobs});
      } else {
        const uint64_t slot = pick.NextBelow(i + 1);
        if (slot < kVerifySamples) {
          kept[slot] = {std::move(snapshot), outcome.ok, outcome.csv, request_jobs};
        }
      }
    }
    WriteSamples(json, "closed_nproc_ms", nproc_ms);
    WriteSamples(json, "closed_one_ms", one_ms);
    for (Sample& s : kept) {
      samples.push_back(std::move(s));
    }
  }

  json.Key("open").BeginArray();
  const int connections = std::max(1, jobs);
  std::vector<std::unique_ptr<vc::ServeClient>> pool;
  for (int c = 0; c < connections && !open_phases.empty(); ++c) {
    pool.push_back(Connect(socket));
  }
  for (const OpenPhase& phase : open_phases) {
    // Poisson arrivals; the schedule and the request mix are fixed by the
    // seed before the clock starts.
    vc::Rng rng(Mix(seed, static_cast<uint64_t>(phase.rate * 1000.0)));
    struct Planned {
      double at = 0.0;
      size_t warehouse = 0;
      int kind = 0;  // 0 analyze edit, 1 report, 2 diff
      uint64_t edit = 0;
    };
    std::vector<Planned> plan;
    double t = 0.0;
    for (int i = 0; i < phase.count; ++i) {
      t += -std::log(1.0 - rng.NextDouble()) / phase.rate;
      const uint64_t roll = rng.NextBelow(10);
      Planned p;
      p.at = t;
      p.warehouse = rng.NextBelow(warehouses.size());
      p.kind = roll < 8 ? 0 : (roll == 8 ? 1 : 2);
      p.edit = p.kind == 0 ? next_edit++ : 0;
      plan.push_back(p);
    }
    std::vector<double> latency_ms(plan.size(), 0.0);
    std::vector<double> lag_ms(plan.size(), 0.0);
    std::vector<Outcome> outcomes(plan.size());
    std::atomic<size_t> next{0};
    const auto phase_start = Clock::now() + std::chrono::milliseconds(50);
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = next.fetch_add(1); i < plan.size(); i = next.fetch_add(1)) {
          const Planned& p = plan[i];
          const Warehouse& w = warehouses[p.warehouse];
          const std::string id = "o" + std::to_string(i);
          const std::string request =
              p.kind == 0 ? AnalyzeRequest(id, w.name, ApplyEdit(w.pristine, seed, p.edit), jobs)
                          : QueryRequest(id, p.kind == 1 ? "report" : "diff", w.name);
          const auto due = phase_start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(p.at));
          std::this_thread::sleep_until(due);
          lag_ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
          std::string response;
          std::string error;
          const bool delivered = pool[c]->Call(request, &response, &error, 60.0);
          latency_ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
          if (delivered) {
            outcomes[i] = ParseResponse(response);
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    Tally phase_tally;
    for (const Outcome& outcome : outcomes) {
      phase_tally.Count(outcome);
      tally.Count(outcome);
    }
    json.BeginObject();
    json.Double("rate", phase.rate);
    json.Int("count", phase.count);
    json.Key("statuses").BeginObject();
    for (const auto& [status, count] : phase_tally.statuses) {
      json.Int(status, count);
    }
    json.EndObject();
    WriteSamples(json, "latency_ms", latency_ms);
    WriteSamples(json, "lag_ms", lag_ms);
    json.Key("ok").BeginArray();
    for (const Outcome& outcome : outcomes) {
      json.RawValue(outcome.ok ? "true" : "false");
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  // Sampled responses that were ok but differ from the batch run (a failed
  // response is already counted as failed).
  int mismatched = 0;
  for (const Sample& s : samples) {
    if (s.ok && s.csv != BatchCsv(s.snapshot, s.jobs)) {
      ++mismatched;
    }
  }
  json.Int("attempted", tally.attempted);
  json.Int("failed", tally.failed);
  json.Int("verified", static_cast<int64_t>(samples.size()));
  json.Int("mismatched", mismatched);
  json.Key("statuses").BeginObject();
  for (const auto& [status, count] : tally.statuses) {
    json.Int(status, count);
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  std::string Get(const std::string& name, const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv, const std::vector<std::string>& switches) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
    } else if (std::find(switches.begin(), switches.end(), arg) != switches.end()) {
      args.flags[arg] = "1";
    } else if (i + 1 < argc) {
      args.flags[arg] = argv[++i];
    } else {
      Die(arg + " needs a value");
    }
  }
  return args;
}

std::vector<OpenPhase> ParsePhases(const std::string& spec) {
  std::vector<OpenPhase> phases;
  std::stringstream list(spec);
  std::string item;
  while (std::getline(list, item, ',')) {
    const size_t colon = item.find(':');
    if (colon == std::string::npos) {
      Die("--open expects RATE:COUNT, got '" + item + "'");
    }
    OpenPhase phase{std::atof(item.substr(0, colon).c_str()),
                    std::atoi(item.substr(colon + 1).c_str())};
    if (phase.rate <= 0.0 || phase.count <= 0) {
      Die("--open rates and counts must be positive");
    }
    phases.push_back(phase);
  }
  return phases;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Die("usage: vc_perfbench gen-history|trace|serve-client ...");
  }
  const std::string command = argv[1];
  Args args = ParseArgs(argc, argv, {"--cold"});
  const uint64_t seed = std::strtoull(args.Get("--seed", "1").c_str(), nullptr, 10);
  const int jobs = std::atoi(args.Get("--jobs", "1").c_str());
  if (command == "gen-history") {
    return GenHistory(seed, std::atof(args.Get("--scale", "1").c_str()), args.Get("--out"));
  }
  if (command == "trace") {
    return Trace(args.Get("--mode"), jobs, seed, args.Get("--csv-out"), args.positional,
                 std::atoi(args.Get("--edits", "5").c_str()));
  }
  if (command == "serve-client") {
    return ServeClientMain(args.Get("--socket"), seed, jobs, args.flags.count("--cold") > 0,
                           std::atof(args.Get("--closed", "0").c_str()),
                           args.Get("--open").empty() ? std::vector<OpenPhase>()
                                                      : ParsePhases(args.Get("--open")),
                           args.positional);
  }
  Die("unknown command " + command);
}
